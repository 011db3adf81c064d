"""SNN-specific instruments.

Spike instrumentation reads the one spike counter,
:func:`repro.snn.analysis.count_spikes`, a layer tap that fires once per
time block in both engines: :class:`StepMonitor` is that counter plus,
per tap call, a per-layer spike-*rate* histogram sample and a spike
counter increment in the global metrics registry, and
:func:`record_spike_profile` gauges the per-layer rates of a finished
count.  Like every writer of :mod:`repro.obs.metrics`, the instruments
record only while observability is enabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from ..snn.analysis import SpikeCounts, count_spikes
from . import metrics as obs_metrics
from . import trace
from .core import is_enabled


class StepMonitor(SpikeCounts):
    """Spike counter that also publishes every time block it sees.

    Each tap call (one layer, one time step) observes
    ``snn.spike_rate{layer=i}`` — spikes over the block's output slots —
    and increments ``snn.spikes{layer=i}``.  Install via
    :func:`monitored`.
    """

    def on_call(self, layer: int, spikes: int, slots: int) -> None:
        obs_metrics.observe("snn.spike_rate", spikes / slots, layer=layer)
        obs_metrics.inc("snn.spikes", spikes, layer=layer)


@contextmanager
def monitored(snn):
    """Monitor ``snn`` for the duration of the block.

    Installs a :class:`StepMonitor` counter on the network's spiking
    layers; the network keeps its engine.  When observability is
    disabled the block runs completely uninstrumented (yields ``None``).
    """
    if not is_enabled():
        yield None
        return
    with count_spikes(snn, StepMonitor(snn)) as monitor:
        yield monitor


def record_spike_profile(counts: SpikeCounts) -> List[float]:
    """Gauge a finished count's per-layer firing rates.

    ``counts`` comes from :func:`~repro.snn.analysis.count_spikes`; one
    ``snn.layer_spike_rate{layer=i}`` gauge per layer carries its spikes
    per neuron per image per step.  Returns the per-layer rates.
    """
    rates = counts.rates()
    for index, rate in enumerate(rates):
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
