"""Seedable, composable fault injection for DNNs and converted SNNs.

:func:`inject_faults` realises a :class:`~repro.faults.spec.FaultSpec`
against a model inside a context manager: faults are applied on entry,
the model is restored bit-for-bit on exit, and every fault event flows
through :class:`~repro.faults.telemetry.FaultTelemetry`.

Mechanics, by fault domain:

- **Weight faults** mutate Conv2d/Linear weights in place (originals
  are restored on exit).  Quantisation reuses the
  :mod:`repro.hw.quantization` backend; stuck-at-zero, sign flips and
  pruning draw per-layer Bernoulli masks.  Pure parameter perturbations
  — the execution engine is unaffected.
- **Neuron faults** perturb each :class:`~repro.snn.SpikingNeuron`'s
  threshold and leak in place (again restored on exit) and install the
  neuron's dead-unit hook (:meth:`SpikingNeuron.set_unit_fault`), which
  the fused scan honours.
- **Transmission faults** are per-time-step: a :class:`~repro.nn.tap`
  on each targeted neuron replaces its spike output.  The engine fires
  the tap once per time block in time order.

Randomness: every (domain, layer) pair gets an independent generator
seeded from ``(spec.seed, domain, layer)``, so realised faults do not
depend on layer iteration order — the same spec and seed reproduces the
same faulted network and, for transmission faults, the same per-step
drop masks whether the layers run layer-major (the engine) or
step-major (the tests' reference loop).
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Dict, List, Tuple

import numpy as np

from ..hw.quantization import quantize_array
from ..nn import Conv2d, Linear, Module, tap
from ..snn import SpikingNetwork, SpikingNeuron
from ..tensor import Tensor
from .spec import FaultSpec
from .telemetry import FaultTelemetry

# Thresholds must stay strictly positive for the spike function; jitter
# realisations are clamped here (same floor the trainers clamp to).
_MIN_THRESHOLD = 1e-2

_DOMAIN_WEIGHT = 0
_DOMAIN_NEURON = 1
_DOMAIN_TRANSMISSION = 2


def _layer_rng(seed: int, domain: int, layer: int) -> np.random.Generator:
    """Independent stream per (spec seed, fault domain, layer index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, domain, layer)))


def _mask_spikes(spikes: Tensor, keep: np.ndarray, label: str) -> Tensor:
    """Elementwise spike suppression that also drops the gradient."""
    mask = keep.astype(spikes.data.dtype, copy=False)

    def bwd(g):
        return (g * mask,)

    return Tensor.from_op(spikes.data * mask, (spikes,), bwd, label)


def _zero_spikes(spikes: Tensor) -> Tensor:
    def bwd(g):
        return (np.zeros_like(g),)

    return Tensor.from_op(np.zeros_like(spikes.data), (spikes,), bwd, "frame_drop")


class FaultInjector:
    """Context manager realising one :class:`FaultSpec` on one model.

    Usage::

        with inject_faults(snn, FaultSpec.pruning(0.1, seed=7)) as session:
            accuracy = evaluate_snn(snn, loader)
        session.summary()   # {"weights_pruned": ..., ...}

    The model is restored exactly on exit: weight arrays, thresholds and
    leaks recover their original bits, transmission taps are removed, and
    dead-unit hooks are cleared.  A null spec installs nothing at all,
    so a fault-instrumented pass is bitwise-identical to a clean one.
    """

    def __init__(self, model: Module, spec: FaultSpec) -> None:
        if not isinstance(model, Module):
            raise TypeError(f"expected a Module, got {type(model).__name__}")
        if not isinstance(model, SpikingNetwork) and not (
            spec.neuron.is_null and spec.transmission.is_null
        ):
            raise ValueError(
                "neuron and transmission faults require a SpikingNetwork; "
                f"got {type(model).__name__} (weight faults work on any model)"
            )
        self.model = model
        self.spec = spec
        self.telemetry = FaultTelemetry()
        self._active = False
        self._saved_params: List[Tuple[np.ndarray, np.ndarray]] = []
        self._faulted_neurons: List[SpikingNeuron] = []
        self._taps = ExitStack()
        self._transmission: List[Tuple[int, Dict]] = []
        self._counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def __enter__(self) -> "FaultInjector":
        if self._active:
            raise RuntimeError("fault injector is already active")
        self._active = True
        try:
            self._validate_layer_targets()
            self._inject_weight_faults()
            self._inject_neuron_faults()
            self._inject_transmission_faults()
        except Exception:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    # ------------------------------------------------------------------
    def _count(self, key: str, amount: float, **labels) -> None:
        if amount:
            self._counters[key] = self._counters.get(key, 0.0) + amount
            self.telemetry.count(key, amount, **labels)

    def summary(self) -> Dict[str, float]:
        """Aggregate fault counts realised by this session so far."""
        return dict(self._counters)

    # ------------------------------------------------------------------
    # Layer-target validation (before anything mutates)
    # ------------------------------------------------------------------
    def _validate_layer_targets(self) -> None:
        """Reject specs referencing layer indices the model doesn't have.

        Runs before any injection so a typo'd index raises a clear
        error naming the layer and the valid range, instead of silently
        injecting nothing (or failing deep inside a mutation loop).
        """
        wf, nf, tf = self.spec.weight, self.spec.neuron, self.spec.transmission
        if wf.layers is not None and not wf.is_null:
            count = len(self._weight_layers())
            for layer in wf.layers:
                if layer >= count:
                    raise ValueError(
                        f"weight fault spec targets layer {layer}, but "
                        f"{type(self.model).__name__} has {count} weight "
                        f"layers (valid indices 0..{count - 1})"
                    )
        if isinstance(self.model, SpikingNetwork):
            layer_count = len(list(self.model.spiking_neurons()))
            for kind, component in (("neuron", nf), ("transmission", tf)):
                if component.layers is None or component.is_null:
                    continue
                for layer in component.layers:
                    if layer >= layer_count:
                        raise ValueError(
                            f"{kind} fault spec targets spiking layer "
                            f"{layer}, but {type(self.model).__name__} has "
                            f"{layer_count} spiking layers (valid indices "
                            f"0..{layer_count - 1})"
                        )

    # ------------------------------------------------------------------
    # Weight faults (pure parameter perturbation)
    # ------------------------------------------------------------------
    def _weight_layers(self) -> List[Tuple[str, Module]]:
        return [
            (name, module)
            for name, module in self.model.named_modules()
            if isinstance(module, (Conv2d, Linear))
        ]

    def _inject_weight_faults(self) -> None:
        wf = self.spec.weight
        if wf.is_null:
            return
        for index, (name, module) in enumerate(self._weight_layers()):
            if wf.layers is not None and index not in wf.layers:
                continue
            data = module.weight.data
            self._saved_params.append((data, data.copy()))
            rng = _layer_rng(self.spec.seed, _DOMAIN_WEIGHT, index)
            quantized = 0
            if wf.quant_bits is not None:
                data[...] = quantize_array(data, wf.quant_bits)
                quantized = data.size
            stuck = flipped = pruned = 0
            if wf.stuck_zero_rate > 0:
                mask = rng.random(data.shape) < wf.stuck_zero_rate
                data[mask] = 0.0
                stuck = int(mask.sum())
            if wf.sign_flip_rate > 0:
                mask = rng.random(data.shape) < wf.sign_flip_rate
                data[mask] *= -1.0
                flipped = int(mask.sum())
            if wf.prune_rate > 0:
                mask = rng.random(data.shape) < wf.prune_rate
                data[mask] = 0.0
                pruned = int(mask.sum())
            self._count("weights_quantized", quantized, layer=index)
            self._count("weights_stuck_zero", stuck, layer=index)
            self._count("weights_sign_flipped", flipped, layer=index)
            self._count("weights_pruned", pruned, layer=index)
            self.telemetry.record(
                "weight",
                layer=index,
                name=name,
                size=int(data.size),
                quant_bits=wf.quant_bits,
                stuck_zero=stuck,
                sign_flipped=flipped,
                pruned=pruned,
            )

    # ------------------------------------------------------------------
    # Neuron faults (parameters + the dead-unit hook)
    # ------------------------------------------------------------------
    def _inject_neuron_faults(self) -> None:
        nf = self.spec.neuron
        if nf.is_null or not isinstance(self.model, SpikingNetwork):
            return
        for index, neuron in enumerate(self.model.spiking_neurons()):
            if nf.layers is not None and index not in nf.layers:
                continue
            rng = _layer_rng(self.spec.seed, _DOMAIN_NEURON, index)
            before_threshold = neuron.threshold
            before_leak = neuron.leak_value
            self._saved_params.append(
                (neuron.v_threshold.data, neuron.v_threshold.data.copy())
            )
            self._saved_params.append((neuron.leak.data, neuron.leak.data.copy()))
            if nf.threshold_jitter > 0:
                factor = 1.0 + nf.threshold_jitter * rng.standard_normal()
                neuron.v_threshold.data[...] = np.maximum(
                    neuron.v_threshold.data * factor, _MIN_THRESHOLD
                )
                self._count("thresholds_jittered", 1, layer=index)
                self.telemetry.gauge(
                    "threshold_jitter",
                    neuron.threshold / before_threshold - 1.0,
                    layer=index,
                )
            if nf.leak_drift > 0:
                drift = nf.leak_drift * rng.standard_normal()
                neuron.leak.data[...] = np.clip(
                    neuron.leak.data + drift, 0.0, 1.0
                )
                self._count("leaks_drifted", 1, layer=index)
                self.telemetry.gauge(
                    "leak_drift", neuron.leak_value - before_leak, layer=index
                )
            if nf.dead_rate > 0:
                dead_rate = nf.dead_rate

                def sampler(unit_shape, _rng=rng, _rate=dead_rate,
                            _layer=index, _self=self):
                    alive = _rng.random(unit_shape) >= _rate
                    dead = int(alive.size - alive.sum())
                    _self._count("neurons_dead", dead, layer=_layer)
                    _self.telemetry.gauge(
                        "dead_fraction",
                        dead / max(alive.size, 1),
                        layer=_layer,
                    )
                    return alive

                neuron.set_unit_fault(sampler)
                self._faulted_neurons.append(neuron)
            self.telemetry.record(
                "neuron",
                layer=index,
                threshold_before=before_threshold,
                threshold_after=neuron.threshold,
                leak_before=before_leak,
                leak_after=neuron.leak_value,
                dead_rate=nf.dead_rate,
            )

    # ------------------------------------------------------------------
    # Transmission faults (per-step: a tap drops spikes after firing)
    # ------------------------------------------------------------------
    def _inject_transmission_faults(self) -> None:
        tf = self.spec.transmission
        if tf.is_null or not isinstance(self.model, SpikingNetwork):
            return
        for index, neuron in enumerate(self.model.spiking_neurons()):
            if tf.layers is not None and index not in tf.layers:
                continue
            rng = _layer_rng(self.spec.seed, _DOMAIN_TRANSMISSION, index)
            stats = {"steps": 0, "spikes_dropped": 0, "frames_dropped": 0}

            def drop(_neuron, _current, spikes, _rng=rng, _tf=tf, _stats=stats):
                _stats["steps"] += 1
                if _tf.frame_drop_rate > 0 and _rng.random() < _tf.frame_drop_rate:
                    _stats["frames_dropped"] += 1
                    _stats["spikes_dropped"] += int(
                        np.count_nonzero(spikes.data)
                    )
                    return _zero_spikes(spikes)
                if _tf.spike_drop_rate > 0:
                    keep = _rng.random(spikes.data.shape) >= _tf.spike_drop_rate
                    _stats["spikes_dropped"] += int(
                        np.count_nonzero(spikes.data * ~keep)
                    )
                    return _mask_spikes(spikes, keep, "spike_drop")
                return None

            self._taps.enter_context(tap(neuron, drop))
            self._transmission.append((index, stats))

    # ------------------------------------------------------------------
    def _restore(self) -> None:
        if not self._active:
            return
        self._taps.close()
        for index, stats in self._transmission:
            self._count("spikes_dropped", stats["spikes_dropped"], layer=index)
            self._count("frames_dropped", stats["frames_dropped"], layer=index)
            self.telemetry.record(
                "transmission",
                layer=index,
                steps=stats["steps"],
                spikes_dropped=stats["spikes_dropped"],
                frames_dropped=stats["frames_dropped"],
            )
        self._transmission = []
        for neuron in self._faulted_neurons:
            neuron.set_unit_fault(None)
        self._faulted_neurons = []
        for target, saved in self._saved_params:
            target[...] = saved
        self._saved_params = []
        if not self.spec.is_null:
            self.telemetry.record(
                "session_end", spec=self.spec.as_dict(), summary=self.summary()
            )
        self._active = False


def inject_faults(model: Module, spec: FaultSpec) -> FaultInjector:
    """Build a :class:`FaultInjector` context manager for ``model``.

    The session's events land in its own :class:`FaultTelemetry`
    (``session.telemetry``) and, inside an observed run, in the run's
    ``faults.jsonl`` and metrics.
    """
    return FaultInjector(model, spec)
