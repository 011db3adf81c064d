"""SNN-specific instruments.

Spiking instrumentation builds on the network's existing recording
surface (``set_recording`` / ``reset_spike_stats`` on
:class:`~repro.snn.network.SpikingNetwork`): :class:`StepMonitor`
attaches to the network's per-timestep hook and, at every step, turns
the neurons' running spike counters into per-layer spike-*rate*
histogram samples and membrane-potential statistics in the global
metrics registry.  Like every writer of :mod:`repro.obs.metrics`, the
instruments record only while observability is enabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

import numpy as np

from . import metrics as obs_metrics
from . import trace
from .core import is_enabled


class StepMonitor:
    """Per-timestep spike-rate and membrane-potential monitor.

    Attach via :func:`monitored` (or ``snn.attach_monitor``); the
    network calls :meth:`on_step` after each simulated time step.
    Neuron ``recording`` must be on for spike counters to advance.
    """

    def __init__(self, snn) -> None:
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
                obs_metrics.observe(
                    "snn.membrane_mean", float(membrane.data.mean()), layer=index
                )
            delta = neuron.spike_count - self._last_counts[index]
            self._last_counts[index] = neuron.spike_count
            if units:
                obs_metrics.observe("snn.spike_rate", delta / units, layer=index)
            obs_metrics.inc("snn.spikes", delta, layer=index)

    def summary(self) -> dict:
        """Per-layer totals accumulated so far (counter values)."""
        registry = obs_metrics.get_registry()
        return {
            index: registry.counter("snn.spikes", layer=index).value
            for index in range(len(self._neurons))
        }


@contextmanager
def monitored(snn):
    """Monitor ``snn`` for the duration of the block.

    Enables spike recording, attaches a :class:`StepMonitor` to the
    network's per-timestep hook, and restores the previous recording
    state afterwards.  When observability is disabled the block runs
    completely uninstrumented (yields ``None``).
    """
    if not is_enabled():
        yield None
        return
    previous_recording = [n.recording for n in snn.spiking_neurons()]
    snn.reset_spike_stats()
    snn.set_recording(True)
    monitor = StepMonitor(snn)
    snn.attach_monitor(monitor)
    try:
        yield monitor
    finally:
        snn.detach_monitor()
        for neuron, was_recording in zip(snn.spiking_neurons(), previous_recording):
            neuron.recording = was_recording


def record_spike_profile(snn) -> List[float]:
    """Summarise the network's accumulated spike statistics into gauges.

    Reads the counters populated by a recorded run (``set_recording``)
    and gauges one average per-neuron-per-step firing rate per layer.
    Returns the per-layer rates.
    """
    rates: List[float] = []
    for index, neuron in enumerate(snn.spiking_neurons()):
        denom = neuron.neuron_count * neuron.step_count
        rate = neuron.spike_count / denom if denom else 0.0
        rates.append(rate)
        obs_metrics.gauge("snn.layer_spike_rate", rate, layer=index)
    return rates


def record_energy_profile(
    snn,
    batches,
    input_shape,
    max_batches: Optional[int] = None,
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
    for layer, stats in enumerate(activity.layers):
        obs_metrics.gauge(
            "energy.spikes_per_neuron", stats.spikes_per_neuron, layer=layer
        )
    for layer, rec in enumerate(records):
        obs_metrics.gauge("energy.snn_ops", rec.snn_ops, layer=layer)
        obs_metrics.gauge("energy.dnn_macs", rec.macs, layer=layer)
    for key in ("snn_total_flops", "dnn_total_flops", "snn_joules",
                "dnn_joules", "improvement", "avg_spikes_per_neuron"):
        obs_metrics.gauge(f"energy.{key}", summary[key])
    obs_metrics.gauge("energy.measured_counts", float(summary["measured_counts"]))
    return summary


def _measured_snn_ops(dispatch, records, images, timesteps):
    """Per-image exact accumulate counts from the dispatcher, if usable.

    The dispatcher records one stats entry per weight layer in execution
    order — the same order the structural FLOP walk yields.  The
    simulator may have run a layer on fewer frames than the hardware
    presents (the fused engine's direct-encoding prefix computes once
    per forward; a folded layer covers all steps in one ``(T*N)``
    call), so :meth:`~repro.snn.dispatch.LayerDispatchStats.per_image`
    rescales by the frames each layer did see.
    """
    if dispatch is None or not dispatch.count_ops:
        return None
    stats = dispatch.layer_stats()
    if len(stats) != len(records) or not images or not timesteps:
        return None
    if any(st.batch_sum <= 0 for st in stats):
        return None
    return [st.per_image(st.accumulates, timesteps) for st in stats]
