"""Memory accounting for training and inference (paper Fig. 3b).

SNN training unrolls the network over ``T`` time steps and must keep
every intermediate activation (plus membrane states) alive for BPTT, so
its training memory grows ~linearly with ``T`` — the reason the paper's
2-3 step SNNs need ~1.44x less GPU memory than the 5-step hybrid
baseline.  Inference memory, in contrast, is dominated by weights and a
single layer's activations, so it is nearly T-independent (as Fig. 3b
shows).

Training memory is *measured*, not modelled: :class:`GraphMemoryMeter`
intercepts every tensor materialised during a forward pass with
gradients enabled, which directly captures the unrolled-BPTT footprint.
Backward releases that graph node by node, so a training step holds one
graph at a time; the bytes counted here are those of one step's graph,
made before its backward, and do not change with the release (nor does
Fig. 3b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..nn import Module
from ..snn import SpikingNetwork
from ..tensor import Tensor, add_op_observer, no_grad, remove_op_observer


class _OpObserverPatch:
    """Register an op observer for the duration of a block (the shared
    :func:`repro.tensor.add_op_observer` hook on ``Tensor.from_op``)."""

    def __init__(self, callback: Callable) -> None:
        self._callback = callback

    def __enter__(self):
        add_op_observer(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        remove_op_observer(self._callback)


class GraphMemoryMeter:
    """Counts bytes of tensors recorded into the autograd graph (the
    activations BPTT must retain)."""

    def __init__(self) -> None:
        self.bytes_allocated = 0.0
        self.tensors_created = 0
        self._patch = _OpObserverPatch(self._on_tensor)

    def _on_tensor(self, tensor: Tensor, name: str = "op") -> None:
        if tensor._node is not None:
            self.bytes_allocated += tensor.data.nbytes
            self.tensors_created += 1

    def __enter__(self) -> "GraphMemoryMeter":
        self._patch.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self._patch.__exit__(*exc_info)


@dataclass
class MemoryReport:
    """Breakdown of a memory estimate, in bytes."""

    parameters: float
    gradients: float
    optimizer_state: float
    activations: float

    @property
    def total(self) -> float:
        return self.parameters + self.gradients + self.optimizer_state + self.activations

    @property
    def total_megabytes(self) -> float:
        return self.total / (1024.0 * 1024.0)


def parameter_bytes(model: Module) -> float:
    """Total bytes of trainable parameters."""
    return float(sum(p.data.nbytes for p in model.parameters()))


def training_memory(
    model: Module,
    forward_backward: Callable[[], None],
    optimizer_state_copies: int = 1,
) -> MemoryReport:
    """Measure the training-step memory footprint.

    ``forward_backward`` must run one representative forward pass with
    gradients enabled (calling backward is unnecessary — graph tensors
    are counted at creation).  ``optimizer_state_copies`` is 1 for
    momentum-SGD, 2 for Adam.
    """
    params = parameter_bytes(model)
    with GraphMemoryMeter() as meter:
        forward_backward()
    return MemoryReport(
        parameters=params,
        gradients=params,
        optimizer_state=params * optimizer_state_copies,
        activations=float(meter.bytes_allocated),
    )


def _traced_bytes(run: Callable[[], None]) -> List[int]:
    """Actual bytes of every op output materialised by ``run`` — read
    off each tensor's own dtype, so the float32 fast path is not
    double-counted at float64 width."""
    sizes: List[int] = []
    with _OpObserverPatch(lambda t, name="op": sizes.append(t.data.nbytes)):
        run()
    return sizes


def _top_two_bytes(byte_sizes: List[int]) -> float:
    return float(sum(sorted(byte_sizes, reverse=True)[:2]))


def inference_memory(model: Module, input_shape, batch_size: int = 1) -> MemoryReport:
    """Estimate inference memory: weights + the two largest layer
    activations (double-buffering) + membrane state for SNNs.

    For spiking networks only the per-step working set counts — spikes
    of earlier steps are not retained — which is why the estimate is
    nearly independent of ``T`` (the paper's Fig. 3b observation).  The
    SNN is traced in its ``"stepwise"`` engine: the fused engine folds
    all ``T`` steps into one ``(T·N, ...)`` batch, which is a speed
    trade, not the per-step working set.
    """
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            if isinstance(model, SpikingNetwork):
                dummy = np.zeros((batch_size,) + tuple(input_shape))
                with model.using_mode("stepwise"):
                    sizes = _traced_bytes(lambda: model(dummy))
                membranes = sum(
                    neuron.membrane.data.nbytes
                    for neuron in model.spiking_neurons()
                    if neuron.membrane is not None
                )
                activations = _top_two_bytes(sizes) + float(membranes)
            else:
                dummy_t = Tensor(np.zeros((batch_size,) + tuple(input_shape)))
                sizes = _traced_bytes(lambda: model(dummy_t))
                activations = _top_two_bytes(sizes)
    finally:
        model.train(was_training)
    return MemoryReport(
        parameters=parameter_bytes(model),
        gradients=0.0,
        optimizer_state=0.0,
        activations=activations,
    )
