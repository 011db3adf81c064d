"""DNN-to-SNN conversion pipeline (paper Section III-B).

``convert_dnn_to_snn`` takes a trained DNN built from this library's
layers, calibrates the per-layer pre-activation statistics, computes the
per-layer neuron specs for the chosen strategy (the paper's Algorithm-1
``alpha``/``beta`` scaling by default, or one of the published baseline
rules), and assembles a :class:`~repro.snn.network.SpikingNetwork` twin:

- every Conv2d / Linear / pool / Flatten is copied (weights deep-copied
  so SGL fine-tuning never mutates the source DNN) and applied per step;
- every activation layer becomes a :class:`SpikingNeuron` with
  ``V^th = alpha * mu`` and spike amplitude ``beta * V^th``;
- Dropout becomes :class:`TemporalDropout` (mask fixed across steps);
- ResNet basic blocks become :class:`SpikingResidualBlock`.

``absorb_beta`` folds each neuron's ``beta`` into the next weight layer
(valid for purely sequential topologies), demonstrating the paper's
claim that the output scaling needs no explicit multiplications.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..models.resnet import BasicBlock
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..nn import (
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    ThresholdReLU,
)
from ..snn import (
    SpikingMaxPool,
    SpikingNetwork,
    SpikingNeuron,
    SpikingResidualBlock,
    SpikingSequential,
    StepWrapper,
    TemporalDropout,
)
from ..snn.network import STATELESS_LAYERS
from .activation_stats import LayerActivationStats, _calibrate, activation_layers
from .specs import STRATEGIES, NeuronSpec, build_specs


@dataclass
class ConversionConfig:
    """Configuration of one DNN-to-SNN conversion.

    Attributes
    ----------
    timesteps:
        SNN latency ``T``.
    strategy:
        One of :data:`repro.conversion.specs.STRATEGIES`
        (default: the paper's ``"proposed"``).
    surrogate:
        Surrogate-gradient name for subsequent SGL fine-tuning.
    trainable:
        Whether neuron thresholds/leaks are trainable after conversion.
    absorb_beta:
        Fold ``beta`` into downstream weights (sequential models only).
    calibration_batches:
        How many calibration batches to consume for statistics.
    max_samples_per_layer:
        Per-layer reservoir bound during calibration.
    strategy_kwargs:
        Extra arguments forwarded to the strategy function.
    """

    timesteps: int
    strategy: str = "proposed"
    surrogate: str = "boxcar"
    trainable: bool = True
    absorb_beta: bool = False
    calibration_batches: Optional[int] = 4
    max_samples_per_layer: int = 200_000
    strategy_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Checked here, before a conversion spends a calibration forward.
        if self.timesteps <= 0:
            raise ValueError("timesteps must be positive")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy '{self.strategy}'; available: {sorted(STRATEGIES)}"
            )
        if self.calibration_batches is not None and self.calibration_batches <= 0:
            raise ValueError("calibration_batches must be positive or None")
        if self.max_samples_per_layer <= 0:
            raise ValueError("max_samples_per_layer must be positive")


@dataclass
class ConversionResult:
    """A converted network plus everything the reports need."""

    snn: SpikingNetwork
    stats: List[LayerActivationStats]
    specs: List[NeuronSpec]
    config: ConversionConfig

    def report_rows(self) -> List[dict]:
        """Per-layer summary: mu, d_max, alpha, beta, V^th."""
        rows = []
        for index, (layer_stats, spec) in enumerate(zip(self.stats, self.specs)):
            rows.append(
                {
                    "layer": index,
                    "mu": layer_stats.mu,
                    "d_max": layer_stats.d_max,
                    "alpha": spec.alpha,
                    "beta": spec.beta,
                    "v_threshold": spec.v_threshold,
                }
            )
        return rows

    def render(self) -> str:
        """Aligned text table of the per-layer conversion summary."""
        from ..experiments.reporting import format_table

        rows = self.report_rows()
        return format_table(
            ["layer", "mu", "d_max", "alpha", "beta", "V^th"],
            [
                [r["layer"], r["mu"], r["d_max"], r["alpha"], r["beta"],
                 r["v_threshold"]]
                for r in rows
            ],
            title=(
                f"Conversion report — strategy={self.config.strategy}, "
                f"T={self.config.timesteps}"
            ),
        )


class _SpecCursor:
    """Hands out neuron specs in activation-layer order during the walk."""

    def __init__(self, specs: Sequence[NeuronSpec], config: ConversionConfig) -> None:
        self._specs = list(specs)
        self._index = 0
        self._config = config

    def next_neuron(self) -> SpikingNeuron:
        if self._index >= len(self._specs):
            raise RuntimeError("more activation layers than computed specs")
        spec = self._specs[self._index]
        self._index += 1
        return SpikingNeuron(
            v_threshold=spec.v_threshold,
            beta=spec.beta,
            leak=1.0,
            trainable=self._config.trainable,
            surrogate=self._config.surrogate,
            initial_potential=spec.initial_potential,
        )

    def assert_exhausted(self) -> None:
        if self._index != len(self._specs):
            raise RuntimeError(
                f"conversion used {self._index} of {len(self._specs)} specs; "
                "model structure and calibration order disagree"
            )


def _build_spiking(module: Module, cursor: _SpecCursor) -> Module:
    """Recursively build the spiking twin of ``module``."""
    if isinstance(module, (ThresholdReLU, ReLU)):
        return cursor.next_neuron()
    if isinstance(module, Dropout):
        return TemporalDropout(module.p, rng=np.random.default_rng(0))
    if isinstance(module, MaxPool2d):
        # Rate-gated spiking max pool: binary outputs whose average
        # converges to the max of the input averages (Rueckauer et al.).
        return SpikingMaxPool(module.kernel_size)
    if isinstance(module, BasicBlock):
        conv1 = StepWrapper(copy.deepcopy(module.conv1))
        neuron1 = _build_spiking(module.act1, cursor)
        conv2 = StepWrapper(copy.deepcopy(module.conv2))
        shortcut = StepWrapper(copy.deepcopy(module.shortcut))
        neuron2 = _build_spiking(module.act2, cursor)
        return SpikingResidualBlock(conv1, neuron1, conv2, shortcut, neuron2)
    if isinstance(module, Sequential):
        return SpikingSequential(*[_build_spiking(child, cursor) for child in module])
    if isinstance(module, STATELESS_LAYERS):
        return StepWrapper(copy.deepcopy(module))
    # Generic container (e.g. VGG, ResNet): map registered children in
    # definition order, which matches forward order for the library's
    # models.
    children = list(module.children())
    if not children:
        raise TypeError(
            f"cannot convert module of type {type(module).__name__}; "
            "add a mapping in repro.conversion.converter"
        )
    return SpikingSequential(*[_build_spiking(child, cursor) for child in children])


def convert_dnn_to_snn(
    model: Module,
    calibration_batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    config: ConversionConfig,
) -> ConversionResult:
    """Convert a trained DNN into a spiking network.

    Parameters
    ----------
    model:
        Trained DNN (VGG / ResNet / any Sequential-composed network
        using this library's layers).
    calibration_batches:
        Iterable of ``(images, labels)`` batches used only for
        activation statistics (labels ignored).
    config:
        Conversion configuration (latency, strategy, ...).

    Calibration reuses the statistics of the model's previous call when
    the model is unchanged and the consumed images are identical (see
    :func:`~repro.conversion.collect_activation_stats`), so converting
    one DNN at several ``T`` or strategies runs its forward once; the
    ``calibration`` span records ``reused``.  Algorithm 1, the specs and
    the spiking twin are built on every call.
    """
    with trace.span(
        "calibration", batches=config.calibration_batches
    ) as span:
        stats, reused = _calibrate(
            model,
            calibration_batches,
            config.calibration_batches,
            config.max_samples_per_layer,
        )
        span.set(
            layers=len(stats), samples=sum(s.count for s in stats), reused=reused
        )
    expected = len(activation_layers(model))
    if len(stats) != expected:
        raise RuntimeError("calibration returned wrong number of layer stats")
    specs = build_specs(
        config.strategy, stats, config.timesteps, **config.strategy_kwargs
    )

    with trace.span(
        "conversion", strategy=config.strategy, timesteps=config.timesteps
    ):
        for index, (layer_stats, spec) in enumerate(zip(stats, specs)):
            obs_metrics.gauge("conversion.mu", layer_stats.mu, layer=index)
            obs_metrics.gauge("conversion.d_max", layer_stats.d_max, layer=index)
            obs_metrics.gauge("conversion.alpha", spec.alpha, layer=index)
            obs_metrics.gauge("conversion.beta", spec.beta, layer=index)
            obs_metrics.gauge(
                "conversion.v_threshold", spec.v_threshold, layer=index
            )
        cursor = _SpecCursor(specs, config)
        body = _build_spiking(model, cursor)
        cursor.assert_exhausted()
        snn = SpikingNetwork(body, timesteps=config.timesteps)
        if config.absorb_beta:
            absorb_beta(snn)
    return ConversionResult(snn=snn, stats=stats, specs=specs, config=config)


def _flatten_pipeline(module: Module, out: List[Module]) -> None:
    if isinstance(module, SpikingSequential):
        for child in module:
            _flatten_pipeline(child, out)
    elif isinstance(module, SpikingNetwork):
        _flatten_pipeline(module.body, out)
    else:
        out.append(module)


def absorb_beta(snn: SpikingNetwork) -> None:
    """Fold each neuron's spike-amplitude scale into downstream weights.

    After absorption every spike has amplitude exactly ``V^th`` and the
    next weight layer's weights are multiplied by ``beta`` — the paper's
    observation that the output scaling requires no multiplications at
    inference.  Pooling, flatten and dropout are transparent (max pool
    commutes with a positive scale; the others are linear).

    Only purely sequential pipelines are supported; residual topologies
    keep ``beta`` explicit (a single per-layer constant, so the
    energy model is unaffected) and raise ``NotImplementedError`` here.
    """
    flat: List[Module] = []
    _flatten_pipeline(snn, flat)
    if any(isinstance(m, SpikingResidualBlock) for m in flat):
        raise NotImplementedError(
            "beta absorption across residual blocks is not supported; "
            "keep beta explicit for ResNet-converted SNNs"
        )
    for index, module in enumerate(flat):
        if not isinstance(module, SpikingNeuron) or module.beta == 1.0:
            continue
        for downstream in flat[index + 1 :]:
            if isinstance(downstream, (TemporalDropout, SpikingMaxPool)):
                # Both commute with a positive uniform scale of their
                # inputs (the gate's argmax is scale-invariant).
                continue
            if isinstance(downstream, StepWrapper):
                inner = downstream.inner
                if isinstance(inner, (Conv2d, Linear)):
                    inner.weight.data *= module.beta
                    module.beta = 1.0
                    break
                # The other stateless layers (pools, flatten, identity)
                # commute with a positive uniform scale.
                continue
            raise NotImplementedError(
                f"cannot absorb beta through {type(downstream).__name__}"
            )
        else:
            raise RuntimeError("neuron with beta != 1 has no downstream weight layer")
