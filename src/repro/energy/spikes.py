"""Spiking-activity measurement (paper Section VI-A).

The average spiking activity of layer ``l`` is the total number of
spikes emitted over all ``T`` steps across the layer's neurons, divided
by the number of neurons — i.e. spikes per neuron per inference.  It is
the quantity plotted per layer in Fig. 4(a) and the scale factor of the
SNN FLOP counts in Fig. 4(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..snn import SpikingNetwork, count_spikes
from ..tensor import no_grad


@dataclass
class LayerSpikeStats:
    """Per-layer activity over a measurement set."""

    layer: int
    spikes: int
    neurons: int
    images: int

    @property
    def spikes_per_neuron(self) -> float:
        """Average spikes per neuron per inference (over all T steps)."""
        if self.neurons == 0 or self.images == 0:
            return 0.0
        return self.spikes / (self.neurons * self.images)


@dataclass
class SpikeActivityReport:
    """Activity of every spiking layer plus network-level aggregates."""

    layers: List[LayerSpikeStats]
    timesteps: int
    images: int

    @property
    def average_spikes_per_neuron(self) -> float:
        """Network average of the per-layer spike rates."""
        if not self.layers:
            return 0.0
        return float(np.mean([layer.spikes_per_neuron for layer in self.layers]))

    def rates_by_neuron_id(self, snn: SpikingNetwork) -> Dict[int, float]:
        """Map ``id(neuron) -> spikes per neuron per inference`` for the
        FLOP accounting in :mod:`repro.energy.flops`."""
        neurons = snn.spiking_neurons()
        if len(neurons) != len(self.layers):
            raise ValueError("report does not match this network")
        return {
            id(neuron): stats.spikes_per_neuron
            for neuron, stats in zip(neurons, self.layers)
        }


@no_grad()
def measure_spiking_activity(
    snn: SpikingNetwork,
    batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    max_batches: int = None,
) -> SpikeActivityReport:
    """Run inference under :func:`~repro.snn.count_spikes` and
    summarise activity."""
    was_training = snn.training
    snn.eval()
    images = 0
    try:
        with count_spikes(snn) as counts:
            for index, (batch, _labels) in enumerate(batches):
                if max_batches is not None and index >= max_batches:
                    break
                snn(np.asarray(batch))
                images += len(batch)
    finally:
        snn.train(was_training)
    if images == 0:
        raise ValueError("no batches provided for spike measurement")

    layers = [
        LayerSpikeStats(layer=i, spikes=spikes, neurons=neurons, images=images)
        for i, (spikes, neurons) in enumerate(zip(counts.spikes, counts.neurons))
    ]
    return SpikeActivityReport(layers=layers, timesteps=snn.timesteps, images=images)
