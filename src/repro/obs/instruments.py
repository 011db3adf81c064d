"""SNN-specific instruments and profiling-backed measurement helpers.

Spiking instrumentation builds on the network's existing recording
surface (``set_recording`` / ``reset_spike_stats`` on
:class:`~repro.snn.network.SpikingNetwork`): :class:`StepMonitor`
attaches to the network's per-timestep hook and, at every step, turns
the neurons' running spike counters into per-layer spike-*rate*
histogram samples and membrane-potential statistics in the global
metrics registry.

The memory helpers fold :mod:`repro.profiling` into the observability
layer as a backend: :func:`measure_training_memory` /
:func:`measure_inference_memory` delegate to ``profiling.memory`` and
gauge the report fields.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional

import numpy as np

from ..profiling.memory import MemoryReport, inference_memory, training_memory
from . import metrics as obs_metrics
from . import trace
from .core import is_enabled
from .metrics import MetricsRegistry


class StepMonitor:
    """Per-timestep spike-rate and membrane-potential monitor.

    Attach via :func:`monitored` (or ``snn.attach_monitor``); the
    network calls :meth:`on_step` after each simulated time step.
    Neuron ``recording`` must be on for spike counters to advance.
    """

    def __init__(
        self,
        snn,
        prefix: str = "snn",
        registry: Optional[MetricsRegistry] = None,
        membranes: bool = True,
    ) -> None:
        self.prefix = prefix
        self.registry = registry if registry is not None else obs_metrics.get_registry()
        self.membranes = membranes
        # The module-tree walk is too slow for a per-step callback;
        # freeze the neuron list at attach time.
        self._neurons = snn.spiking_neurons()
        self._last_counts = [neuron.spike_count for neuron in self._neurons]
        self.steps_seen = 0

    def on_step(self, step: int, network) -> None:
        self.steps_seen += 1
        for index, neuron in enumerate(self._neurons):
            membrane = neuron.membrane
            units = None
            if membrane is not None:
                units = float(np.prod(membrane.data.shape))
                if self.membranes:
                    self.registry.observe(
                        f"{self.prefix}.membrane_mean",
                        float(membrane.data.mean()),
                        layer=index,
                    )
            delta = neuron.spike_count - self._last_counts[index]
            self._last_counts[index] = neuron.spike_count
            if units:
                self.registry.observe(
                    f"{self.prefix}.spike_rate",
                    delta / units,
                    layer=index,
                )
            self.registry.inc(
                f"{self.prefix}.spikes", delta, layer=index
            )

    def summary(self) -> dict:
        """Per-layer totals accumulated so far (counter values)."""
        totals = {}
        for index in range(len(self._neurons)):
            counter = self.registry.counter(
                f"{self.prefix}.spikes", layer=index
            )
            totals[index] = counter.value
        return totals


@contextmanager
def monitored(
    snn,
    prefix: str = "snn",
    registry: Optional[MetricsRegistry] = None,
    membranes: bool = True,
):
    """Monitor ``snn`` for the duration of the block.

    Enables spike recording, attaches a :class:`StepMonitor` to the
    network's per-timestep hook, and restores the previous recording
    state afterwards.  When observability is disabled the block runs
    completely uninstrumented (yields ``None``).
    """
    if not is_enabled() and registry is None:
        yield None
        return
    previous_recording = [n.recording for n in snn.spiking_neurons()]
    snn.reset_spike_stats()
    snn.set_recording(True)
    monitor = StepMonitor(snn, prefix=prefix, registry=registry, membranes=membranes)
    snn.attach_monitor(monitor)
    try:
        yield monitor
    finally:
        snn.detach_monitor()
        for neuron, was_recording in zip(snn.spiking_neurons(), previous_recording):
            neuron.recording = was_recording


def record_spike_profile(
    snn,
    prefix: str = "snn",
    registry: Optional[MetricsRegistry] = None,
) -> List[float]:
    """Summarise the network's accumulated spike statistics into gauges.

    Reads the counters populated by a recorded run (``set_recording``)
    and gauges one average per-neuron-per-step firing rate per layer.
    Returns the per-layer rates.
    """
    registry = registry if registry is not None else obs_metrics.get_registry()
    rates: List[float] = []
    for index, neuron in enumerate(snn.spiking_neurons()):
        denom = neuron.neuron_count * neuron.step_count
        rate = neuron.spike_count / denom if denom else 0.0
        rates.append(rate)
        registry.set_gauge(f"{prefix}.layer_spike_rate", rate, layer=index)
    return rates


def record_energy_profile(
    snn,
    batches,
    input_shape,
    max_batches: Optional[int] = None,
    prefix: str = "energy",
    registry: Optional[MetricsRegistry] = None,
) -> dict:
    """Run :mod:`repro.energy` accounting and publish ``energy.*`` gauges.

    Measures spiking activity of ``snn`` over ``batches`` (Section VI
    of the paper), prices the spike-scaled operation counts with the
    45 nm CMOS :class:`~repro.energy.EnergyModel`, and gauges:

    - per layer: ``energy.spikes_per_neuron``, ``energy.snn_ops``,
      ``energy.dnn_macs`` (labelled ``layer=``);
    - totals: ``energy.snn_total_flops``, ``energy.dnn_total_flops``,
      ``energy.snn_joules``, ``energy.dnn_joules``,
      ``energy.improvement`` (the DNN/SNN energy ratio).

    When the network runs with sparse dispatch enabled (and op counting
    on), the rate-based per-layer ``snn_ops`` estimates are replaced by
    the dispatcher's *exact* accumulate counts measured during the same
    activity pass, and ``energy.measured_counts`` gauges 1.

    Returns the summary dict (also attached to the enclosing span).
    The energy package is imported lazily so the observability core
    never drags the accounting machinery in.
    """
    from ..energy import (
        EnergyModel,
        measure_spiking_activity,
        snn_layer_flops,
        snn_total_flops,
    )

    registry = registry if registry is not None else obs_metrics.get_registry()
    record = is_enabled() or registry is not obs_metrics.get_registry()
    with trace.span("energy_profile", timesteps=snn.timesteps) as sp:
        dispatch = getattr(snn, "sparse_dispatch", None)
        if dispatch is not None and dispatch.count_ops:
            dispatch.reset_stats()
        activity = measure_spiking_activity(snn, batches, max_batches=max_batches)
        rates = activity.rates_by_neuron_id(snn)
        records = snn_layer_flops(snn, input_shape, rates)
        measured = _measured_snn_ops(
            dispatch, records, activity.images, activity.timesteps
        )
        if measured is not None:
            for rec, ops in zip(records, measured):
                rec.snn_ops = ops
        model = EnergyModel()
        snn_joules = model.snn_energy(records)
        dnn_joules = model.dnn_energy(records)
        summary = {
            "timesteps": activity.timesteps,
            "images": activity.images,
            "avg_spikes_per_neuron": activity.average_spikes_per_neuron,
            "snn_total_flops": snn_total_flops(records),
            "dnn_total_flops": sum(rec.macs for rec in records),
            "snn_joules": snn_joules,
            "dnn_joules": dnn_joules,
            # A fully silent network has zero SNN energy; report 0 rather
            # than raising mid-run.
            "improvement": dnn_joules / snn_joules if snn_joules else 0.0,
            "measured_counts": measured is not None,
        }
        sp.set(**summary)
    if record:
        for layer, stats in enumerate(activity.layers):
            registry.set_gauge(
                f"{prefix}.spikes_per_neuron", stats.spikes_per_neuron, layer=layer
            )
        for layer, rec in enumerate(records):
            registry.set_gauge(f"{prefix}.snn_ops", rec.snn_ops, layer=layer)
            registry.set_gauge(f"{prefix}.dnn_macs", rec.macs, layer=layer)
        for key in ("snn_total_flops", "dnn_total_flops", "snn_joules",
                    "dnn_joules", "improvement", "avg_spikes_per_neuron"):
            registry.set_gauge(f"{prefix}.{key}", summary[key])
        registry.set_gauge(
            f"{prefix}.measured_counts", float(summary["measured_counts"])
        )
    return summary


def _measured_snn_ops(dispatch, records, images, timesteps):
    """Per-image exact accumulate counts from the dispatcher, if usable.

    The dispatcher records one stats entry per weight layer in execution
    order — the same order the structural FLOP walk yields.  The
    hardware pays ``timesteps`` presentations per image at every layer,
    but the simulator may have run a layer on fewer frames (the fused
    engine's direct-encoding prefix computes once per forward; a folded
    layer covers all steps in one ``(T*N)`` call) — each layer's summed
    input batch says exactly how many frames it did see, so scaling by
    ``timesteps * images / batch_sum`` recovers the per-presentation
    count for every engine.
    """
    if dispatch is None or not dispatch.count_ops:
        return None
    stats = dispatch.layer_stats()
    if len(stats) != len(records) or not images or not timesteps:
        return None
    if any(st.batch_sum <= 0 for st in stats):
        return None
    return [
        st.accumulates * timesteps / st.batch_sum
        for st in stats
    ]


def record_dispatch_profile(
    snn,
    prefix: str = "dispatch",
    registry: Optional[MetricsRegistry] = None,
) -> List[dict]:
    """Publish the sparse dispatcher's per-layer telemetry as gauges.

    For each weight layer (labelled ``layer=<index>`` in execution
    order): ``dispatch.density`` (mean input spike density),
    ``dispatch.threshold`` (its crossover), ``dispatch.sparse_fraction``
    (share of forwards routed sparse), ``dispatch.sparse_runs`` /
    ``dispatch.dense_runs``, and ``dispatch.accumulates`` (exact
    synaptic ops).  Returns the stats as dicts (execution order); empty
    when the network has no dispatcher or it has not run yet.
    """
    registry = registry if registry is not None else obs_metrics.get_registry()
    dispatch = getattr(snn, "sparse_dispatch", None)
    if dispatch is None:
        return []
    rows = []
    for layer, st in enumerate(dispatch.layer_stats()):
        registry.set_gauge(f"{prefix}.density", st.mean_density, layer=layer)
        registry.set_gauge(f"{prefix}.threshold", st.threshold, layer=layer)
        registry.set_gauge(
            f"{prefix}.sparse_fraction", st.sparse_fraction, layer=layer
        )
        registry.set_gauge(f"{prefix}.sparse_runs", st.sparse_runs, layer=layer)
        registry.set_gauge(f"{prefix}.dense_runs", st.dense_runs, layer=layer)
        registry.set_gauge(f"{prefix}.accumulates", st.accumulates, layer=layer)
        rows.append(dict(st.as_dict(), layer=layer))
    return rows


# ----------------------------------------------------------------------
# profiling/ as measurement backends
# ----------------------------------------------------------------------
def measure_training_memory(
    model,
    forward_backward: Callable[[], None],
    optimizer_state_copies: int = 1,
    name: str = "training_memory",
    registry: Optional[MetricsRegistry] = None,
) -> MemoryReport:
    """:func:`repro.profiling.training_memory` + gauges of the report."""
    with trace.span(f"memory:{name}"):
        report = training_memory(
            model, forward_backward, optimizer_state_copies=optimizer_state_copies
        )
    _gauge_memory_report(report, name, registry)
    return report


def measure_inference_memory(
    model,
    input_shape,
    batch_size: int = 1,
    name: str = "inference_memory",
    registry: Optional[MetricsRegistry] = None,
) -> MemoryReport:
    """:func:`repro.profiling.inference_memory` + gauges of the report."""
    with trace.span(f"memory:{name}"):
        report = inference_memory(model, input_shape, batch_size=batch_size)
    _gauge_memory_report(report, name, registry)
    return report


def _gauge_memory_report(
    report: MemoryReport, name: str, registry: Optional[MetricsRegistry]
) -> None:
    if registry is None:
        if not is_enabled():
            return
        registry = obs_metrics.get_registry()
    registry.set_gauge(f"{name}.parameters_bytes", report.parameters)
    registry.set_gauge(f"{name}.activations_bytes", report.activations)
    registry.set_gauge(f"{name}.total_bytes", report.total)
