"""Functional differentiable operations on :class:`~repro.tensor.Tensor`.

These complement the Tensor methods with the nonlinearities and
numerically-stable softmax machinery used by the library.  The most
paper-specific op is :func:`threshold_relu`, the trainable-threshold
clipping activation of Eq. (1):

    Y = clip(X, 0, mu)

whose gradient w.r.t. the threshold ``mu`` is the straight-through
estimate ``1{X >= mu}`` (TCL, Ho & Chang 2021), summed down to the shape
of ``mu``.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, unbroadcast


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    mask = x.data > 0
    out = np.where(mask, x.data, 0.0)

    def bwd(g):
        return (np.where(mask, g, 0.0),)

    return Tensor.from_op(out, (x,), bwd, "relu")


def threshold_relu(x: Tensor, mu: Tensor) -> Tensor:
    """Trainable-threshold ReLU: ``clip(x, 0, mu)`` (paper Eq. 1).

    Parameters
    ----------
    x:
        Pre-activation tensor.
    mu:
        Trainable clipping threshold; any shape broadcastable against
        ``x`` (typically a scalar per layer).

    Gradients
    ---------
    ``d out / d x = 1`` on ``0 < x < mu`` (else 0);
    ``d out / d mu = 1`` on ``x >= mu`` (else 0), reduced to ``mu``'s
    shape — the standard straight-through rule used to learn clipping
    thresholds.
    """
    mu_b = np.broadcast_to(mu.data, np.broadcast_shapes(x.data.shape, mu.data.shape))
    x_b = np.broadcast_to(x.data, mu_b.shape)
    out = np.clip(x_b, 0.0, mu_b)
    in_band = (x_b > 0.0) & (x_b < mu_b)
    above = x_b >= mu_b

    def bwd(g):
        gx = unbroadcast(np.where(in_band, g, 0.0), x.data.shape)
        gmu = unbroadcast(np.where(above, g, 0.0), mu.data.shape)
        return (gx, gmu)

    return Tensor.from_op(out, (x, mu), bwd, "threshold_relu")


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Differentiable clip with straight-through gradient inside the band."""
    out = np.clip(x.data, low, high)
    in_band = (x.data > low) & (x.data < high)

    def bwd(g):
        return (np.where(in_band, g, 0.0),)

    return Tensor.from_op(out, (x,), bwd, "clip")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    softmax_vals = np.exp(out)

    def bwd(g):
        return (g - softmax_vals * g.sum(axis=axis, keepdims=True),)

    return Tensor.from_op(out, (x,), bwd, "log_softmax")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale by 1/(1-p)."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    # Exactly 0 or 1/(1-p): one multiply gives the values of x*keep*scale.
    mask = (rng.random(x.data.shape) >= p) * x.data.dtype.type(1.0 / (1.0 - p))
    out = x.data * mask

    def bwd(g):
        return (g * mask,)

    return Tensor.from_op(out, (x,), bwd, "dropout")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels -> one-hot float matrix (plain numpy, no grad)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    eye = np.zeros((labels.size, num_classes))
    eye[np.arange(labels.size), labels] = 1.0
    return eye
