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
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

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
    """

    __slots__ = ("parents", "backward_fn", "name")

    def __init__(
        self,
        parents: Sequence["object"],
        backward_fn: Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]],
        name: str = "op",
    ) -> None:
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.name = name


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
    tensor with ``requires_grad=True`` reachable from ``root``.

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

    # Gradients flowing along graph edges, keyed by tensor identity.  We
    # key by id() and keep the tensor alive in the dict value.
    flowing = {id(root): grad}
    for tensor in reversed(_topological_order(root)):
        tensor_grad = flowing.pop(id(tensor), None)
        if tensor_grad is None:
            continue
        if tensor.requires_grad and tensor._node is None:
            # Leaf: accumulate.
            if tensor.grad is None:
                tensor.grad = tensor_grad.copy()
            else:
                tensor.grad = tensor.grad + tensor_grad
        node = tensor._node
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
