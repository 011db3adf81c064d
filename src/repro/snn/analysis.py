"""Temporal spike analysis: rasters, intervals, synchrony.

Tools for inspecting *when* a converted network spikes, not just how
much.  Ultra-low-latency SNNs (T = 2-3) leave little room for temporal
structure, which is precisely the paper's bet — most of the information
must move in the first step or two.  These utilities let tests and
examples quantify that:

- :func:`count_spikes` — the one spike counter: per-layer spikes and
  output slots over a block, in either engine;
- :func:`count_accumulates` — the one exact accumulate counter: per
  weight layer, the input events and the synaptic operations they
  trigger (Section VI of the paper);
- :func:`record_spike_raster` — per-layer ``(T, batch, ...)`` binary
  spike tensors for a given input batch;
- :func:`spikes_per_step` — population spike counts over time;
- :func:`first_spike_latency` — per-neuron step of first firing;
- :func:`temporal_sparsity` — fraction of silent neuron-steps;
- :func:`synchrony_index` — how concentrated in a single step the
  layer's spiking is (1 = all spikes in one step).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..nn import Conv2d, Linear, tap
from ..tensor import no_grad
from .network import SpikingNetwork, StepWrapper


class SpikeCounts:
    """Per-layer spike totals gathered by :func:`count_spikes`.

    Indexed by spiking layer (``snn.spiking_neurons()`` order):
    ``spikes`` counts the nonzero outputs the layer transmitted,
    ``slots`` the output slots it produced (neurons x images x steps)
    and ``neurons`` its per-sample neuron count.  The instance is the
    tap itself; subclasses observe each call through :meth:`on_call`.
    """

    def __init__(self, snn: SpikingNetwork) -> None:
        self.layers = snn.spiking_neurons()
        self._index = {id(neuron): i for i, neuron in enumerate(self.layers)}
        self.spikes = [0] * len(self.layers)
        self.slots = [0] * len(self.layers)
        self.neurons = [0] * len(self.layers)

    def __call__(self, neuron, _current, out) -> None:
        data = out.data
        index = self._index[id(neuron)]
        fired = int(np.count_nonzero(data))
        self.spikes[index] += fired
        self.slots[index] += data.size
        self.neurons[index] = data.size // data.shape[0]
        self.on_call(index, fired, data.size)

    def on_call(self, layer: int, spikes: int, slots: int) -> None:
        """One tap call: ``spikes`` of ``slots`` outputs of one time block."""

    def rates(self) -> List[float]:
        """Per-layer spikes per neuron per image per step (at most 1)."""
        return [s / n if n else 0.0 for s, n in zip(self.spikes, self.slots)]


@contextmanager
def count_spikes(
    snn: SpikingNetwork, counts: Optional[SpikeCounts] = None
) -> Iterator[SpikeCounts]:
    """Count every spiking layer's transmitted spikes within the block.

    Taps the neurons through :class:`repro.nn.tap`, which fires once per
    time block, so counting never changes how the network runs.
    Counts start at zero (or at ``counts``, a possibly subclassed
    :class:`SpikeCounts` of this network) and follow any tap installed
    earlier, e.g. transmission faults.
    """
    counts = SpikeCounts(snn) if counts is None else counts
    with tap(counts.layers, counts):
        yield counts


def conv_fanout_map(
    in_shape: Tuple[int, int, int], layer: Conv2d
) -> np.ndarray:
    """Per-input-position fan-out of a convolution.

    Returns an ``(C, H, W)`` integer array: the number of *output*
    connections each input element feeds (``out_channels x`` the number
    of kernel placements covering that position).  Border positions
    have smaller fan-out — exactly the count a spike event from that
    position triggers.
    """
    _, height, width = in_shape
    k, s, p = layer.kernel_size, layer.stride, layer.padding

    def coverage(length: int) -> np.ndarray:
        """Kernel placements covering each position along one axis."""
        starts = np.arange((length + 2 * p - k) // s + 1) * s - p
        taps = (starts[:, None] + np.arange(k)).ravel()
        return np.bincount(taps[(taps >= 0) & (taps < length)], minlength=length)

    per_position = np.outer(coverage(height), coverage(width)) * layer.out_channels
    return np.broadcast_to(per_position, tuple(in_shape)).copy()


class AccumulateCounts:
    """Per-weight-layer event totals gathered by :func:`count_accumulates`.

    Indexed by weight layer (the ``Conv2d``/``Linear`` inner of every
    :class:`~repro.snn.network.StepWrapper`, in module order):
    ``events`` counts the input events the layer received — the nonzero
    inputs of a hidden layer, every input element of the first weight
    layer, which sees the analog image — and ``accumulates`` the synaptic
    operations they trigger, one per reachable output connection
    (:func:`conv_fanout_map`).  ``rows`` counts the per-step input rows
    seen (images x steps) and ``unit_shapes`` holds each layer's
    per-sample input shape.  The instance is the tap itself.
    """

    def __init__(self, snn: SpikingNetwork) -> None:
        self.timesteps = snn.timesteps
        self.layers = [
            m.inner for m in snn.modules()
            if isinstance(m, StepWrapper) and isinstance(m.inner, (Conv2d, Linear))
        ]
        self._index = {id(layer): i for i, layer in enumerate(self.layers)}
        self.events = [0] * len(self.layers)
        self.accumulates = [0] * len(self.layers)
        self.rows = [0] * len(self.layers)
        self.unit_shapes: List[tuple] = [()] * len(self.layers)
        self._analog_layer: Optional[int] = None

    def __call__(self, layer, x, _out) -> None:
        data = x.data
        index = self._index[id(layer)]
        if self._analog_layer is None:
            # The first weight layer a forward reaches sees the analog
            # image: every element an event at every step, whatever its
            # value.
            self._analog_layer = index
        rows, unit_shape = data.shape[0], data.shape[1:]
        if index == self._analog_layer:
            counts = np.full(int(np.prod(unit_shape)), rows)
        else:
            counts = np.count_nonzero(data.reshape(rows, -1), axis=0)
        events = int(counts.sum())
        if isinstance(layer, Conv2d):
            fanout = conv_fanout_map(unit_shape, layer).reshape(-1)
            self.accumulates[index] += int(counts.dot(fanout))
        else:
            self.accumulates[index] += events * layer.out_features
        self.events[index] += events
        self.rows[index] += rows
        self.unit_shapes[index] = unit_shape

    def per_inference(self, counts: List[int]) -> List[float]:
        """Per-layer ``counts`` (``events`` or ``accumulates``) per
        inference: the hardware presents each image for ``timesteps``
        steps, and a layer saw ``rows`` per-step rows in all."""
        return [
            count * self.timesteps / rows if rows else 0.0
            for count, rows in zip(counts, self.rows)
        ]


@contextmanager
def count_accumulates(snn: SpikingNetwork) -> Iterator[AccumulateCounts]:
    """Count every weight layer's input events and accumulates within
    the block.

    Taps the weight layers' inputs through :class:`repro.nn.tap`, which
    fires once per time block, so the counts do not depend on which
    path (dense GEMM or sparse gather) computed the outputs.  Counts
    start at zero.
    """
    counts = AccumulateCounts(snn)
    with tap(counts.layers, counts):
        yield counts


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
