"""Event-driven execution and exact accumulate accounting.

On neuromorphic hardware a converted SNN performs work only when spikes
arrive: each input spike triggers one accumulate per outgoing synapse.
The dense simulator in :mod:`repro.snn.network` computes the same
numbers with GEMMs, and :mod:`repro.energy.flops` *estimates* the
accumulate count from average spike rates.  This module closes the
loop:

- :class:`EventDrivenNetwork` re-runs a converted network input-by-
  input, counting the **exact** number of accumulates every weight
  layer performs (one per spike event per reachable output connection)
  while producing bit-identical outputs to the dense simulator;
- with ``sparse=True`` the synaptic propagation itself is executed
  event-by-event (scatter-accumulate over the active inputs), a
  reference implementation of how a neuromorphic core would process the
  layer.  It is slower in numpy but validates that the dense GEMM and
  the event-driven semantics agree exactly.

The exact counts let the test-suite bound the error of the rate-based
FLOP estimator — the quantity behind the paper's Fig. 4(b)/(c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn import Conv2d, Linear, tap
from ..tensor import Tensor, no_grad
from ..tensor.sparse import pack_spikes, sparse_conv2d_gather, sparse_linear_gather
from .network import SpikingNetwork, StepWrapper


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
    channels, height, width = in_shape
    k, s, p = layer.kernel_size, layer.stride, layer.padding
    out_h = (height + 2 * p - k) // s + 1
    out_w = (width + 2 * p - k) // s + 1

    def coverage(length: int, out_len: int) -> np.ndarray:
        counts = np.zeros(length, dtype=np.int64)
        for out_index in range(out_len):
            start = out_index * s - p
            lo, hi = max(0, start), min(length, start + k)
            if hi > lo:
                counts[lo:hi] += 1
        return counts

    rows = coverage(height, out_h)
    cols = coverage(width, out_w)
    per_position = rows[:, None] * cols[None, :] * layer.out_channels
    return np.broadcast_to(per_position, (channels, height, width)).copy()


def sparse_conv2d(
    spikes: np.ndarray, layer: Conv2d
) -> np.ndarray:
    """Event-driven convolution over the active inputs only.

    Vectorised gather/segment-sum execution (``repro.tensor.sparse``):
    events are packed once, each kernel offset gathers its per-channel
    weight rows and accumulates sorted output-row runs — no per-event
    Python loop.  Semantics are unchanged from the original reference
    implementation (one accumulate per spike per reachable output
    connection).
    """
    return sparse_conv2d_gather(
        pack_spikes(spikes),
        weight=layer.weight.data,
        stride=layer.stride,
        padding=layer.padding,
        bias=layer.bias.data if layer.bias is not None else None,
    )


def sparse_linear(spikes: np.ndarray, layer: Linear) -> np.ndarray:
    """Event-driven linear layer: accumulate active columns only.

    Vectorised: one transposed weight gather over the packed event
    columns plus a segment sum per sample row.
    """
    return sparse_linear_gather(
        pack_spikes(spikes),
        weight=layer.weight.data,
        bias=layer.bias.data if layer.bias is not None else None,
    )


@dataclass
class EventCounts:
    """Exact per-layer event statistics over a measurement run.

    ``accumulates`` are synaptic operations (one per spike event per
    reachable output connection); ``input_events`` are the raw spike
    arrivals at each weight layer (summed over time steps and batch);
    ``input_shapes`` the per-image input shape each layer saw.
    """

    layer_names: List[str] = field(default_factory=list)
    accumulates: List[float] = field(default_factory=list)
    input_events: List[float] = field(default_factory=list)
    input_shapes: List[Tuple[int, ...]] = field(default_factory=list)
    images: int = 0

    @property
    def total(self) -> float:
        return float(sum(self.accumulates))

    def per_image(self) -> List[float]:
        if self.images == 0:
            return [0.0] * len(self.accumulates)
        return [a / self.images for a in self.accumulates]

    def input_events_per_image(self) -> List[float]:
        if self.images == 0:
            return [0.0] * len(self.input_events)
        return [e / self.images for e in self.input_events]


class EventDrivenNetwork:
    """Runs a converted SNN with exact event accounting.

    Parameters
    ----------
    snn:
        A converted :class:`SpikingNetwork` (evaluated in eval mode).
    sparse:
        If True, hidden-layer synaptic propagation is executed with the
        event-by-event reference kernels (slow; use small inputs).
        Otherwise the dense GEMM computes values while events are
        counted exactly from the spike tensors.

    Usage::

        runner = EventDrivenNetwork(snn)
        logits, counts = runner.run(images)
    """

    def __init__(self, snn: SpikingNetwork, sparse: bool = False) -> None:
        self.snn = snn
        self.sparse = sparse
        self._counts: Optional[EventCounts] = None
        self._fanout_cache: Dict[int, np.ndarray] = {}
        self._first_weight_layer: Optional[int] = None
        self._index: Dict[int, int] = {}
        # Weight layers in execution order, populated by run(); aligned
        # with the EventCounts lists (consumed by repro.hw.map_network).
        self.weight_layers: List = []

    # ------------------------------------------------------------------
    def _register_layers(self) -> List[StepWrapper]:
        """Open a count slot per weight layer; returns the wrappers to tap."""
        wrappers = [
            m for m in self.snn.modules()
            if isinstance(m, StepWrapper) and isinstance(m.inner, (Conv2d, Linear))
        ]
        counts = self._counts
        if self._first_weight_layer is None and wrappers:
            self._first_weight_layer = id(wrappers[0])
        self.weight_layers = [w.inner for w in wrappers]
        for index, wrapper in enumerate(wrappers):
            counts.layer_names.append(f"{type(wrapper.inner).__name__.lower()}{index}")
            counts.accumulates.append(0.0)
            counts.input_events.append(0.0)
            counts.input_shapes.append(())
        self._index = {id(w): index for index, w in enumerate(wrappers)}
        return wrappers

    def _count(self, wrapper: StepWrapper, x: Tensor, out: Tensor):
        """Tap on one weight layer's step: count its events, and with
        ``sparse=True`` replace the output by the event-driven result."""
        counts = self._counts
        index = self._index[id(wrapper)]
        inner = wrapper.inner
        data = x.data
        counts.input_shapes[index] = tuple(data.shape[1:])
        if id(wrapper) == self._first_weight_layer:
            # Direct-encoded analog input: every element is an "event"
            # and every connection a MAC at every step — dense count,
            # dense compute.
            counts.input_events[index] += float(data.size)
            if isinstance(inner, Conv2d):
                fanout = self._fanout_for(inner, data.shape[1:])
                counts.accumulates[index] += float(fanout.sum() * data.shape[0])
            else:
                counts.accumulates[index] += float(
                    data.shape[0] * inner.in_features * inner.out_features
                )
            return None
        active = data != 0.0
        counts.input_events[index] += float(active.sum())
        if isinstance(inner, Conv2d):
            fanout = self._fanout_for(inner, data.shape[1:])
            counts.accumulates[index] += float((active * fanout[None]).sum())
            return Tensor(sparse_conv2d(data, inner)) if self.sparse else None
        counts.accumulates[index] += float(active.sum() * inner.out_features)
        return Tensor(sparse_linear(data, inner)) if self.sparse else None

    def _fanout_for(self, layer: Conv2d, in_shape) -> np.ndarray:
        key = (id(layer), tuple(in_shape))
        if key not in self._fanout_cache:
            self._fanout_cache[key] = conv_fanout_map(tuple(in_shape), layer)
        return self._fanout_cache[key]

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> Tuple[Tensor, EventCounts]:
        """One inference pass; returns (logits, exact event counts)."""
        images = np.asarray(images)
        self._counts = EventCounts(images=images.shape[0])
        self._first_weight_layer = None
        was_training = self.snn.training
        self.snn.eval()
        try:
            with tap(self._register_layers(), self._count), no_grad():
                logits = self.snn(images)
        finally:
            self.snn.train(was_training)
        return logits, self._counts
