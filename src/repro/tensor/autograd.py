"""Reverse-mode automatic differentiation engine.

This module holds the pieces of the autograd machinery that are not the
:class:`~repro.tensor.tensor.Tensor` class itself: the global gradient
mode, the graph node structure recorded during the forward pass, and the
topological backward traversal.

The design mirrors the classic "tape" approach: every differentiable
operation creates a :class:`Node` that remembers its parent tensors and a
``backward_fn`` mapping the incoming output gradient to one gradient per
parent.  ``backward`` walks the graph in reverse topological order and
accumulates gradients into leaf tensors.

Like PyTorch without ``retain_graph``, ``backward`` releases each node
once its ``backward_fn`` has run: the closure and the arrays it saved
are dropped as the traversal goes, so a training step holds one graph,
not two.  A second backward that reaches a released node raises.

Inside :class:`recycle_buffers` (the trainers' ``fit``), the large
private arrays an op saved for its backward -- the conv window pack,
the spike scan's masks and membranes -- are not freed but kept for the
next :func:`empty` or :func:`empty_like` of the same shape, dtype and
strides, so the next step's forward reuses warm memory instead of
faulting fresh pages in.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class GradMode:
    """Global switch for gradient tracking (mirrors torch.no_grad)."""

    _enabled: bool = True

    @classmethod
    def is_enabled(cls) -> bool:
        return cls._enabled

    @classmethod
    def set_enabled(cls, enabled: bool) -> None:
        cls._enabled = bool(enabled)


class no_grad:
    """Context manager / decorator that disables gradient tracking.

    Example
    -------
    >>> from repro.tensor import Tensor, no_grad
    >>> with no_grad():
    ...     y = Tensor([1.0], requires_grad=True) * 2.0
    >>> y.requires_grad
    False
    """

    def __enter__(self) -> "no_grad":
        self._prev = GradMode.is_enabled()
        GradMode.set_enabled(False)
        return self

    def __exit__(self, *exc_info) -> None:
        GradMode.set_enabled(self._prev)

    def __call__(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


class Node:
    """One recorded operation in the autograd graph.

    Parameters
    ----------
    parents:
        The input tensors of the operation (only those requiring grad
        actually receive gradients).
    backward_fn:
        Maps the gradient w.r.t. the op output to a sequence of gradients,
        one per parent (``None`` allowed for non-differentiable inputs).
    name:
        Human-readable op name, used in error messages and debugging.
    buffers:
        Arrays only ``backward_fn`` reads, from :func:`empty` or
        :func:`empty_like`; once it has run, :func:`backward` hands
        them on inside :class:`recycle_buffers`.
    """

    __slots__ = ("parents", "backward_fn", "name", "buffers")

    def __init__(
        self,
        parents: Sequence["object"],
        backward_fn: Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]],
        name: str = "op",
        buffers: Tuple[np.ndarray, ...] = (),
    ) -> None:
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.name = name
        self.buffers = buffers

    def release(self) -> None:
        """Drop the parents and the closure; keep the name for errors."""
        self.parents = ()
        self.backward_fn = None
        self.buffers = ()


#: Arrays released by the last backward, keyed by shape, dtype and strides;
#: ``None`` outside :class:`recycle_buffers`.
_spare: Optional[Dict[Tuple, List[np.ndarray]]] = None


def _recycled(shape, dtype: np.dtype, inner_first) -> Optional[np.ndarray]:
    """A released buffer of ``shape`` laid out densely, axes
    ``inner_first`` innermost first, or ``None``."""
    strides = [0] * len(shape)
    step = dtype.itemsize
    for axis in inner_first:
        strides[axis] = step
        step *= shape[axis]
    buffers = _spare.get((tuple(shape), dtype, tuple(strides)))
    return buffers.pop() if buffers else None


def empty(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """``np.empty(shape, dtype)``, or a buffer the last backward released
    with its shape, dtype and strides.  The caller overwrites every
    element."""
    dtype = np.dtype(dtype)
    if _spare:
        buffer = _recycled(shape, dtype, range(len(shape) - 1, -1, -1))
        if buffer is not None:
            return buffer
    return np.empty(shape, dtype)


def empty_like(like: np.ndarray) -> np.ndarray:
    """``np.empty_like(like)``, or a released buffer with its strides (so
    a computation's memory order, hence its float sums, do not change).
    The caller overwrites every element."""
    if _spare:
        # np.empty_like's axis order, read off a 2**ndim-byte probe.
        probe = np.empty_like(like, np.uint8, shape=(2,) * like.ndim).strides
        buffer = _recycled(
            like.shape, like.dtype, sorted(range(like.ndim), key=probe.__getitem__)
        )
        if buffer is not None:
            return buffer
    return np.empty_like(like)


class recycle_buffers:
    """Context manager / decorator handing the buffers each backward
    releases to the next step's ops (the trainers' ``fit``).

    Buffers not taken are dropped at the next backward and on exit, so
    nothing outlives the block.
    """

    def __enter__(self) -> "recycle_buffers":
        global _spare
        self._previous = _spare
        _spare = {}
        return self

    def __exit__(self, *exc_info) -> None:
        global _spare
        _spare.clear()
        _spare = self._previous

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recycle_buffers():
                return fn(*args, **kwargs)

        return wrapper


def _topological_order(root) -> List:
    """Return tensors in topological order ending at ``root``.

    Iterative DFS (deep SNN unrolls can exceed Python's recursion limit).
    """
    order: List = []
    visited = set()
    stack = [(root, False)]
    while stack:
        tensor, processed = stack.pop()
        if processed:
            order.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        visited.add(id(tensor))
        stack.append((tensor, True))
        if tensor._node is not None:
            for parent in tensor._node.parents:
                if parent._node is not None or parent.requires_grad:
                    stack.append((parent, False))
    return order


def backward(root, grad: Optional[np.ndarray] = None) -> None:
    """Run reverse-mode autodiff from ``root``.

    Gradients are accumulated into the ``.grad`` attribute of every leaf
    tensor with ``requires_grad=True`` reachable from ``root``.  Each
    node is released once its ``backward_fn`` has run; reaching a
    released node raises ``RuntimeError``.

    Parameters
    ----------
    root:
        The tensor to differentiate. Must be a scalar unless ``grad`` is
        given explicitly.
    grad:
        Gradient of some downstream scalar w.r.t. ``root``. Defaults to
        ``ones_like(root)`` for scalars.
    """
    if grad is None:
        if root.data.size != 1:
            raise RuntimeError(
                "backward() on a non-scalar tensor requires an explicit "
                f"`grad` argument (got shape {root.data.shape})"
            )
        grad = np.ones_like(root.data)
    grad = np.asarray(grad, dtype=root.data.dtype)
    if grad.shape != root.data.shape:
        raise ValueError(
            f"grad shape {grad.shape} does not match tensor shape "
            f"{root.data.shape}"
        )

    if _spare is not None:
        _spare.clear()
    # Gradients flowing along graph edges, keyed by tensor identity; a
    # key's tensor stays alive in ``order`` until it is popped.
    flowing = {id(root): grad}
    order = _topological_order(root)
    while order:
        tensor = order.pop()
        tensor_grad = flowing.pop(id(tensor), None)
        if tensor_grad is None:
            continue
        node = tensor._node
        if node is not None and node.backward_fn is None:
            raise RuntimeError(
                f"op '{node.name}' was released by an earlier backward(); "
                "build a new graph to differentiate again"
            )
        if tensor.requires_grad and node is None:
            # Leaf: accumulate.
            if tensor.grad is None:
                tensor.grad = tensor_grad.copy()
            else:
                tensor.grad = tensor.grad + tensor_grad
        if node is None:
            continue
        parent_grads = node.backward_fn(tensor_grad)
        if len(parent_grads) != len(node.parents):
            raise RuntimeError(
                f"op '{node.name}' returned {len(parent_grads)} gradients "
                f"for {len(node.parents)} parents"
            )
        for parent, parent_grad in zip(node.parents, parent_grads):
            if parent_grad is None:
                continue
            if parent_grad.shape != parent.data.shape:
                raise RuntimeError(
                    f"op '{node.name}' produced gradient of shape "
                    f"{parent_grad.shape} for parent of shape "
                    f"{parent.data.shape}"
                )
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + parent_grad
            else:
                flowing[key] = parent_grad
        if _spare is not None:
            for buffer in node.buffers:
                key = (buffer.shape, buffer.dtype, buffer.strides)
                _spare.setdefault(key, []).append(buffer)
        node.release()
