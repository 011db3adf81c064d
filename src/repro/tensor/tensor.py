"""The :class:`Tensor` class — a numpy array with reverse-mode autograd.

Supports broadcasting elementwise arithmetic, matmul, reductions, shape
movement and indexing, all differentiable.  Convolution and pooling live
in :mod:`repro.tensor.conv_ops`; non-method functional ops (relu,
log-softmax, ...) live in :mod:`repro.tensor.ops`.

Only ``float`` tensors participate in autograd.  Boolean / integer
results (comparisons, argmax) are returned as raw numpy arrays since
they are never differentiated through.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .autograd import GradMode, Node, backward

ArrayLike = Union[np.ndarray, float, int, list, tuple]

DEFAULT_DTYPE = np.float64


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with (float64 by default)."""
    return DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Switch the default tensor dtype (float32 halves memory and
    roughly doubles conv GEMM throughput; float64 is the accuracy-safe
    default used by the test suite's gradient checks)."""
    global DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported default dtype {dtype}")
    DEFAULT_DTYPE = dtype.type


class default_dtype:
    """Context manager pinning the default dtype within a block."""

    def __init__(self, dtype) -> None:
        self._dtype = dtype
        self._previous = None

    def __enter__(self) -> "default_dtype":
        self._previous = DEFAULT_DTYPE
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc_info) -> None:
        set_default_dtype(self._previous)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting either prepends axes or stretches size-1 axes; the
    adjoint of both is summation.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse stretched size-1 axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A multidimensional array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype if dtype is not None else DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._node: Optional[Node] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad)

    @staticmethod
    def full(shape: Sequence[int], value: float, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.full(shape, value, dtype=DEFAULT_DTYPE), requires_grad)

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable,
        name: str = "op",
        buffers: Tuple[np.ndarray, ...] = (),
    ) -> "Tensor":
        """Create a tensor as the output of a differentiable op.

        This is the extension point used by every op in the library
        (including custom surrogate-gradient spike functions in
        :mod:`repro.snn`).  Gradient tracking is skipped when the global
        grad mode is off or no parent requires grad.  ``buffers`` are
        arrays only ``backward_fn`` reads (see :class:`Node`).
        """
        requires = GradMode.is_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._node = Node(parents, backward_fn, name, buffers)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_str = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_str})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy, detached view)."""
        return self.data

    # ------------------------------------------------------------------
    # Autograd entry points
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        backward(self, grad)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic (broadcasting)
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self.data + other.data

        def bwd(g):
            return (
                unbroadcast(g, self.data.shape),
                unbroadcast(g, other.data.shape),
            )

        return Tensor.from_op(out, (self, other), bwd, "add")

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self.data - other.data

        def bwd(g):
            return (
                unbroadcast(g, self.data.shape),
                unbroadcast(-g, other.data.shape),
            )

        return Tensor.from_op(out, (self, other), bwd, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self.data * other.data
        a, b = self.data, other.data

        def bwd(g):
            return (
                unbroadcast(g * b, a.shape),
                unbroadcast(g * a, b.shape),
            )

        return Tensor.from_op(out, (self, other), bwd, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out = self.data / other.data
        a, b = self.data, other.data

        def bwd(g):
            return (
                unbroadcast(g / b, a.shape),
                unbroadcast(-g * a / (b * b), b.shape),
            )

        return Tensor.from_op(out, (self, other), bwd, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def bwd(g):
            return (-g,)

        return Tensor.from_op(-self.data, (self,), bwd, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = self.data ** exponent
        base = self.data

        def bwd(g):
            return (g * exponent * base ** (exponent - 1),)

        return Tensor.from_op(out, (self,), bwd, "pow")

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return numpy arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > self._coerce(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= self._coerce(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < self._coerce(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= self._coerce(other).data

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = np.exp(self.data)

        def bwd(g):
            return (g * out,)

        return Tensor.from_op(out, (self,), bwd, "exp")

    def log(self) -> "Tensor":
        data = self.data

        def bwd(g):
            return (g / data,)

        return Tensor.from_op(np.log(data), (self,), bwd, "log")

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)

        def bwd(g):
            return (g * 0.5 / out,)

        return Tensor.from_op(out, (self,), bwd, "sqrt")

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def bwd(g):
            return (g * (1.0 - out * out),)

        return Tensor.from_op(out, (self,), bwd, "tanh")

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-self.data))

        def bwd(g):
            return (g * out * (1.0 - out),)

        return Tensor.from_op(out, (self,), bwd, "sigmoid")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def bwd(g):
            return (g * sign,)

        return Tensor.from_op(np.abs(self.data), (self,), bwd, "abs")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def bwd(g):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            axes = axis if isinstance(axis, tuple) else (axis,)
            if not keepdims:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor.from_op(out, (self,), bwd, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (
            self.data.size
            if axis is None
            else np.prod(
                [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
            )
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)
        data, shape = self.data, self.data.shape

        def bwd(g):
            g = np.asarray(g)
            if axis is None:
                expanded = np.broadcast_to(out, shape)
                gex = np.broadcast_to(g, shape)
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                out_kd = out if keepdims else np.expand_dims(out, axes)
                g_kd = g if keepdims else np.expand_dims(g, axes)
                expanded = np.broadcast_to(out_kd, shape)
                gex = np.broadcast_to(g_kd, shape)
            mask = (data == expanded).astype(data.dtype)
            # Split gradient equally among ties (deterministic & exact
            # for distinct maxima, which is the overwhelming case).
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            if axis is not None and not keepdims:
                pass  # denom already keepdims via sum(..., keepdims=True)
            return (gex * mask / np.maximum(denom, 1.0),)

        return Tensor.from_op(out, (self,), bwd, "max")

    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        out = a @ b

        def bwd(g):
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            if b.ndim == 1:
                ga = np.expand_dims(g, -1) * b
                gb = unbroadcast((np.swapaxes(a, -1, -2) @ np.expand_dims(g, -1))[..., 0], b.shape)
                return (unbroadcast(ga, a.shape), gb)
            if a.ndim == 1:
                ga = unbroadcast((np.expand_dims(g, -2) @ np.swapaxes(b, -1, -2))[..., 0, :], a.shape)
                gb = np.expand_dims(a, -1) * np.expand_dims(g, -2)
                return (ga, unbroadcast(gb, b.shape))
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return (unbroadcast(ga, a.shape), unbroadcast(gb, b.shape))

        return Tensor.from_op(out, (self, other), bwd, "matmul")

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Shape movement
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = self.data.reshape(shape)

        def bwd(g):
            return (g.reshape(original),)

        return Tensor.from_op(out, (self,), bwd, "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def bwd(g):
            return (g.transpose(inverse),)

        return Tensor.from_op(self.data.transpose(axes), (self,), bwd, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten_batch(self) -> "Tensor":
        """Flatten all but the leading (batch) dimension."""
        return self.reshape(self.data.shape[0], -1)

    def __getitem__(self, index) -> "Tensor":
        out = self.data[index]
        shape = self.data.shape
        dtype = self.data.dtype

        def bwd(g):
            grad = np.zeros(shape, dtype=dtype)
            np.add.at(grad, index, g)
            return (grad,)

        return Tensor.from_op(out, (self,), bwd, "getitem")

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions symmetrically."""
        if padding == 0:
            return self
        p = int(padding)
        widths = [(0, 0)] * (self.data.ndim - 2) + [(p, p), (p, p)]
        out = np.pad(self.data, widths)

        def bwd(g):
            slices = tuple(
                [slice(None)] * (g.ndim - 2) + [slice(p, -p), slice(p, -p)]
            )
            return (g[slices],)

        return Tensor.from_op(out, (self,), bwd, "pad2d")


# ----------------------------------------------------------------------
# Op observers (profilers and memory meters)
# ----------------------------------------------------------------------
#: The pristine ``from_op`` function, captured before any observer can
#: wrap it (class access on a staticmethod yields the plain function).
_PRISTINE_FROM_OP = Tensor.from_op

_OP_OBSERVERS: list = []


def _dispatching_from_op(
    data: np.ndarray,
    parents: Sequence["Tensor"],
    backward_fn: Callable,
    name: str = "op",
    buffers: Tuple[np.ndarray, ...] = (),
) -> "Tensor":
    out = _PRISTINE_FROM_OP(data, parents, backward_fn, name, buffers)
    for observer in _OP_OBSERVERS:
        observer(out, name)
    return out


def add_op_observer(observer: Callable) -> None:
    """Call ``observer(tensor, name)`` after every :meth:`Tensor.from_op`.

    The dispatching wrapper is installed only while at least one
    observer is registered; with none, ``Tensor.from_op`` is the
    original function, so code that never profiles pays nothing.
    Observers fire in registration order and must not raise.
    """
    _OP_OBSERVERS.append(observer)
    if len(_OP_OBSERVERS) == 1:
        Tensor.from_op = staticmethod(_dispatching_from_op)


def remove_op_observer(observer: Callable) -> None:
    """Unregister ``observer``; restores the pristine ``from_op`` when
    the last observer leaves (unknown observers are ignored)."""
    try:
        _OP_OBSERVERS.remove(observer)
    except ValueError:
        return
    if not _OP_OBSERVERS:
        Tensor.from_op = staticmethod(_PRISTINE_FROM_OP)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        grads = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor.from_op(out, tensors, bwd, "concatenate")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def bwd(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(moved[i] for i in range(len(tensors)))

    return Tensor.from_op(out, tensors, bwd, "stack")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition`` is a boolean numpy mask."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out = np.where(cond, a.data, b.data)

    def bwd(g):
        return (
            unbroadcast(np.where(cond, g, 0.0), a.data.shape),
            unbroadcast(np.where(cond, 0.0, g), b.data.shape),
        )

    return Tensor.from_op(out, (a, b), bwd, "where")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise maximum (ties split 50/50)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out = np.maximum(a.data, b.data)
    a_wins = a.data > b.data
    tie = a.data == b.data

    def bwd(g):
        ga = np.where(a_wins, g, np.where(tie, 0.5 * g, 0.0))
        gb = np.where(a_wins, 0.0, np.where(tie, 0.5 * g, g))
        return (unbroadcast(ga, a.data.shape), unbroadcast(gb, b.data.shape))

    return Tensor.from_op(out, (a, b), bwd, "maximum")
