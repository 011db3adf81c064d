"""DNN-to-SNN conversion: the paper's core contribution.

- :mod:`activation_stats` — per-layer pre-activation percentiles;
- :mod:`algorithm1` — the percentile-driven ``alpha``/``beta`` search;
- :mod:`specs` — neuron specs for the proposed strategy and the
  published baselines (max-norm, Deng optimal shift, grid scaling);
- :mod:`converter` — builds the spiking twin network;
- :mod:`theory` — the analytical error model of Eqs. 5-7.
"""

from .activation_stats import (
    LayerActivationStats,
    activation_layers,
    collect_activation_stats,
)
from .algorithm1 import ScalingFactors, compute_loss, find_scaling_factors
from .diagnostics import (
    LayerErrorReport,
    diagnose_conversion,
    render_diagnosis,
    worst_layer,
)
from .converter import (
    ConversionConfig,
    ConversionResult,
    absorb_beta,
    convert_dnn_to_snn,
)
from .specs import (
    STRATEGIES,
    NeuronSpec,
    build_specs,
    deng_shift_specs,
    grid_scaling_specs,
    max_activation_specs,
    proposed_specs,
    threshold_relu_specs,
)
from .theory import (
    dnn_threshold_relu,
    empirical_output_gap,
    expected_difference,
    expected_difference_alpha_beta,
    g_i,
    h_prime_t_mu,
    h_t_mu,
    k_mu,
    snn_staircase,
)

__all__ = [
    "ConversionConfig",
    "ConversionResult",
    "LayerActivationStats",
    "LayerErrorReport",
    "NeuronSpec",
    "STRATEGIES",
    "ScalingFactors",
    "absorb_beta",
    "activation_layers",
    "build_specs",
    "collect_activation_stats",
    "compute_loss",
    "convert_dnn_to_snn",
    "deng_shift_specs",
    "diagnose_conversion",
    "dnn_threshold_relu",
    "empirical_output_gap",
    "expected_difference",
    "expected_difference_alpha_beta",
    "find_scaling_factors",
    "g_i",
    "grid_scaling_specs",
    "h_prime_t_mu",
    "h_t_mu",
    "k_mu",
    "max_activation_specs",
    "proposed_specs",
    "render_diagnosis",
    "snn_staircase",
    "threshold_relu_specs",
    "worst_layer",
]
