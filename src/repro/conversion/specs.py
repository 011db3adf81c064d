"""Per-layer neuron specifications for each conversion strategy.

A :class:`NeuronSpec` is everything the converter needs to instantiate
one layer's spiking neurons: threshold, spike-amplitude scale and
initial membrane potential.  Each strategy maps the per-layer
:class:`~repro.conversion.activation_stats.LayerActivationStats` to a
spec list:

- :func:`proposed_specs` — the paper's Algorithm-1 ``alpha``/``beta``
  scaling (threshold ``alpha mu``, amplitude ``beta V^th``);
- :func:`threshold_relu_specs` — plain conversion with ``V^th = mu``
  (the "threshold ReLU" curve of Fig. 2);
- :func:`max_activation_specs` — classic max-norm threshold balancing
  (``V^th = d_max``; Diehl/Sengupta, and the non-trainable threshold of
  Deng et al. [15]);
- :func:`deng_shift_specs` — [15]'s optimal-shift conversion: the bias
  term ``delta = V^th / 2T`` realised as an initial membrane charge of
  ``V^th / 2``;
- :func:`grid_scaling_specs` — the linear-grid threshold-scaling
  heuristic of Han et al. [24] / Li et al. [16] (no ``beta``), the
  ablation baseline that collapses at ultra-low T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace
from .activation_stats import LayerActivationStats
from .algorithm1 import compute_loss, find_scaling_factors


@dataclass
class NeuronSpec:
    """Instantiation parameters for one layer of spiking neurons."""

    v_threshold: float
    beta: float = 1.0
    initial_potential: float = 0.0
    alpha: float = 1.0  # retained for reporting/ablation

    def __post_init__(self) -> None:
        if self.v_threshold <= 0:
            raise ValueError("v_threshold must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def proposed_specs(
    stats: Sequence[LayerActivationStats],
    timesteps: int,
    beta_max: float = 2.0,
    beta_step: float = 0.01,
) -> List[NeuronSpec]:
    """The paper's conversion: per-layer Algorithm-1 search.

    Layers are searched serially in-process: the filtered search takes
    well under a millisecond per layer, less than shipping the layer to
    a worker would cost.
    """
    specs = []
    for index, layer_stats in enumerate(stats):
        with trace.span("algorithm1", layer=index, mu=layer_stats.mu) as span:
            factors = find_scaling_factors(
                layer_stats.percentiles,
                layer_stats.mu,
                timesteps,
                beta_max=beta_max,
                beta_step=beta_step,
            )
            span.set(
                alpha=factors.alpha,
                beta=factors.beta,
                residual=factors.loss,
                evaluations=factors.evaluations,
            )
        # Delta_{alpha beta} residual at the optimum, plus search effort.
        obs_metrics.observe("algorithm1.residual", factors.loss, layer=index)
        obs_metrics.inc("algorithm1.evaluations", factors.evaluations)
        specs.append(
            NeuronSpec(
                v_threshold=factors.alpha * layer_stats.mu,
                beta=factors.beta,
                alpha=factors.alpha,
            )
        )
    return specs


def threshold_relu_specs(
    stats: Sequence[LayerActivationStats],
) -> List[NeuronSpec]:
    """Unscaled conversion with the trained threshold: ``V^th = mu``."""
    return [NeuronSpec(v_threshold=s.mu) for s in stats]


def max_activation_specs(
    stats: Sequence[LayerActivationStats],
    percentile: float = 100.0,
) -> List[NeuronSpec]:
    """Max-norm threshold balancing: ``V^th = d_max`` (or a robust
    percentile of the pre-activations, as in Rueckauer et al.)."""
    specs = []
    for layer_stats in stats:
        v_th = layer_stats.percentile(percentile) if percentile < 100.0 else layer_stats.d_max
        specs.append(NeuronSpec(v_threshold=max(v_th, 1e-6)))
    return specs


def deng_shift_specs(
    stats: Sequence[LayerActivationStats],
    timesteps: int,
    use_max_activation: bool = False,
) -> List[NeuronSpec]:
    """Deng et al. [15] optimal-shift conversion.

    ``V^th`` is the layer threshold (``d_max`` with
    ``use_max_activation=True``, reproducing their non-trainable
    threshold; else the trained ``mu``), plus the bias shift
    ``delta = V^th / 2T`` applied as an initial membrane charge of
    ``V^th / 2`` (which shifts the T-step average staircase left by
    exactly ``delta``).  ``timesteps`` is kept for interface symmetry —
    the initial *charge* realising the shift is T-independent.
    """
    if timesteps <= 0:
        raise ValueError("timesteps must be positive")
    specs = []
    for layer_stats in stats:
        v_th = layer_stats.d_max if use_max_activation else layer_stats.mu
        v_th = max(v_th, 1e-6)
        specs.append(NeuronSpec(v_threshold=v_th, initial_potential=v_th / 2.0))
    return specs


def grid_scaling_specs(
    stats: Sequence[LayerActivationStats],
    timesteps: int,
    scales: Optional[Sequence[float]] = None,
) -> List[NeuronSpec]:
    """Linear-grid threshold scaling (Han et al. / Li et al. heuristic).

    Scales ``V^th = scale * mu`` over a uniform grid and keeps the scale
    minimising the same signed conversion loss — but with *no* output
    scaling (``beta = 1``), which is exactly what the paper ablates:
    without the y-direction degree of freedom the ultra-low-T error
    cannot be compensated.
    """
    if scales is None:
        scales = np.linspace(0.1, 1.0, 10)
    specs = []
    for layer_stats in stats:
        best_scale, best_loss = 1.0, None
        for scale in scales:
            loss = compute_loss(
                layer_stats.percentiles, layer_stats.mu, float(scale), 1.0, timesteps
            )
            if best_loss is None or abs(loss) < abs(best_loss):
                best_scale, best_loss = float(scale), loss
        specs.append(
            NeuronSpec(v_threshold=best_scale * layer_stats.mu, alpha=best_scale)
        )
    return specs


STRATEGIES = {
    "proposed": proposed_specs,
    "threshold_relu": threshold_relu_specs,
    "max_activation": max_activation_specs,
    "deng_shift": deng_shift_specs,
    "grid_scaling": grid_scaling_specs,
}


def build_specs(
    strategy: str,
    stats: Sequence[LayerActivationStats],
    timesteps: int,
    **kwargs,
) -> List[NeuronSpec]:
    """Dispatch to a conversion strategy by name."""
    if strategy == "proposed":
        return proposed_specs(stats, timesteps, **kwargs)
    if strategy == "threshold_relu":
        return threshold_relu_specs(stats, **kwargs)
    if strategy == "max_activation":
        return max_activation_specs(stats, **kwargs)
    if strategy == "deng_shift":
        return deng_shift_specs(stats, timesteps, **kwargs)
    if strategy == "grid_scaling":
        return grid_scaling_specs(stats, timesteps, **kwargs)
    raise KeyError(f"unknown strategy '{strategy}'; available: {sorted(STRATEGIES)}")
