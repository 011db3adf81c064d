"""SNN-specific instruments.

Spike instrumentation reads the one spike counter,
:func:`repro.snn.analysis.count_spikes`, a layer tap that fires once per
time block: :class:`StepMonitor` is that counter plus,
per tap call, a per-layer spike-*rate* histogram sample and a spike
counter increment in the global metrics registry, and
:func:`record_spike_profile` gauges the per-layer rates of a finished
count.  Like every writer of :mod:`repro.obs.metrics`, the instruments
record only while observability is enabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

from ..snn.analysis import SpikeCounts, count_accumulates, count_spikes
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

    Those are the paper's rate estimates.  The same activity pass runs
    under :func:`~repro.snn.analysis.count_accumulates`, and its exact
    per-image accumulates are reported beside them:
    ``energy.accumulates{layer=i}`` and the summary's
    ``snn_accumulates`` total.

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
        with count_accumulates(snn) as counted:
            activity = measure_spiking_activity(
                snn, batches, max_batches=max_batches
            )
        accumulates = counted.per_inference(counted.accumulates)
        rates = activity.rates_by_neuron_id(snn)
        records = snn_layer_flops(snn, input_shape, rates)
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
            "snn_accumulates": sum(accumulates),
        }
        sp.set(**summary)
    for layer, stats in enumerate(activity.layers):
        obs_metrics.gauge(
            "energy.spikes_per_neuron", stats.spikes_per_neuron, layer=layer
        )
    for layer, rec in enumerate(records):
        obs_metrics.gauge("energy.snn_ops", rec.snn_ops, layer=layer)
        obs_metrics.gauge("energy.dnn_macs", rec.macs, layer=layer)
    for layer, count in enumerate(accumulates):
        obs_metrics.gauge("energy.accumulates", count, layer=layer)
    for key in ("snn_total_flops", "dnn_total_flops", "snn_joules",
                "dnn_joules", "improvement", "avg_spikes_per_neuron"):
        obs_metrics.gauge(f"energy.{key}", summary[key])
    return summary
