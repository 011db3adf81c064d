"""Memory measurement for training and inference passes (paper Fig. 3b).

:func:`traced_peak_bytes` reads the tracemalloc peak of one pass —
numpy reports its data buffers to tracemalloc, so the figure covers
activations, conv packs, scan buffers, backward temporaries and
gradients alike, on the engine the experiments run.

:class:`GraphMemoryMeter` counts only the op outputs recorded into the
autograd graph (the activations BPTT retains); the tests use it as a
bound on what one training step holds.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable

from ..tensor import Tensor, add_op_observer, remove_op_observer


def traced_peak_bytes(run: Callable[[], None]) -> int:
    """Peak bytes that ``run()`` allocates above what is traced when it
    starts.

    tracemalloc is started for the call when it is off and stopped again
    afterwards; an enclosing trace keeps running (its peak is reset to
    the current size).  Tracing slows allocation, so time a pass on a
    separate, untraced call.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak - before


class GraphMemoryMeter:
    """Counts bytes of tensors recorded into the autograd graph (the
    activations BPTT must retain), through the shared
    :func:`repro.tensor.add_op_observer` hook on ``Tensor.from_op``."""

    def __init__(self) -> None:
        self.bytes_allocated = 0.0
        self.tensors_created = 0

    def _on_tensor(self, tensor: Tensor, name: str = "op") -> None:
        if tensor._node is not None:
            self.bytes_allocated += tensor.data.nbytes
            self.tensors_created += 1

    def __enter__(self) -> "GraphMemoryMeter":
        add_op_observer(self._on_tensor)
        return self

    def __exit__(self, *exc_info) -> None:
        remove_op_observer(self._on_tensor)
