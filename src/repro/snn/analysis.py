"""Temporal spike analysis: rasters, intervals, synchrony.

Tools for inspecting *when* a converted network spikes, not just how
much.  Ultra-low-latency SNNs (T = 2-3) leave little room for temporal
structure, which is precisely the paper's bet — most of the information
must move in the first step or two.  These utilities let tests and
examples quantify that:

- :func:`record_spike_raster` — per-layer ``(T, batch, ...)`` binary
  spike tensors for a given input batch;
- :func:`spikes_per_step` — population spike counts over time;
- :func:`first_spike_latency` — per-neuron step of first firing;
- :func:`temporal_sparsity` — fraction of silent neuron-steps;
- :func:`synchrony_index` — how concentrated in a single step the
  layer's spiking is (1 = all spikes in one step).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..nn import tap
from ..tensor import no_grad
from .network import SpikingNetwork


def record_spike_raster(
    snn: SpikingNetwork, images: np.ndarray
) -> List[np.ndarray]:
    """Binary spike rasters of every neuron layer for one batch.

    Returns one array per spiking layer, shaped ``(T, batch, ...)``
    with entries in {0, 1} (amplitudes are normalised away).
    """
    neurons = snn.spiking_neurons()
    frames = {id(neuron): [] for neuron in neurons}

    def record(neuron, _current, out):
        frames[id(neuron)].append((out.data != 0.0).astype(np.float64))

    was_training = snn.training
    snn.eval()
    try:
        with tap(neurons, record), no_grad():
            snn(np.asarray(images))
    finally:
        snn.train(was_training)
    rasters = []
    for layer_frames in frames.values():
        if not layer_frames:
            raise RuntimeError("a spiking layer produced no frames")
        rasters.append(np.stack(layer_frames, axis=0))
    return rasters


def spikes_per_step(raster: np.ndarray) -> np.ndarray:
    """Total population spikes at each time step: shape ``(T,)``."""
    t = raster.shape[0]
    return raster.reshape(t, -1).sum(axis=1)


def first_spike_latency(raster: np.ndarray) -> np.ndarray:
    """Per-neuron first-firing step (T for neurons that never fire).

    Shape: the raster's per-step shape (batch and neuron dims kept).
    """
    t = raster.shape[0]
    fired_any = raster.any(axis=0)
    first = np.argmax(raster != 0.0, axis=0)
    return np.where(fired_any, first, t)


def temporal_sparsity(raster: np.ndarray) -> float:
    """Fraction of (neuron, step) slots with no spike — the quantity
    AC-based energy savings come from."""
    return float(1.0 - raster.mean())


def synchrony_index(raster: np.ndarray) -> float:
    """Concentration of spiking in time.

    1 means every spike lands in a single step; ``1/T`` means perfectly
    uniform spread.  Defined as ``max_t s_t / sum_t s_t`` over the
    population counts ``s_t`` (0 for a silent raster).
    """
    counts = spikes_per_step(raster)
    total = counts.sum()
    if total == 0:
        return 0.0
    return float(counts.max() / total)


def layer_summary(
    snn: SpikingNetwork, images: np.ndarray
) -> List[Dict[str, float]]:
    """Per-layer temporal statistics for one batch."""
    rasters = record_spike_raster(snn, images)
    summary = []
    for index, raster in enumerate(rasters):
        latencies = first_spike_latency(raster)
        fired = latencies < raster.shape[0]
        summary.append(
            {
                "layer": index,
                "spikes_per_neuron": float(
                    raster.sum() / max(1, np.prod(raster.shape[1:]))
                ),
                "temporal_sparsity": temporal_sparsity(raster),
                "synchrony": synchrony_index(raster),
                "mean_first_spike": (
                    float(latencies[fired].mean()) if fired.any() else float("nan")
                ),
                "fraction_firing": float(fired.mean()),
            }
        )
    return summary
