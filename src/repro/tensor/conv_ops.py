"""Differentiable 2-D convolution and pooling primitives.

Convolution is one GEMM over a channel-major window pack: a single
strided view of the (padded) input, copied once into a
``(C_in * K * K, N * out_h * out_w)`` matrix whose contiguous runs are
rows of outputs.  The same pack serves the forward GEMM and the weight
gradient.  The input gradient is the transposed convolution of the
output gradient -- dilated by the stride, zero-padded, packed the same
way at stride 1 and multiplied by the flipped, channel-swapped filters
-- and is skipped when the input needs no gradient.

A map no larger than the kernel (``H * W <= K * K``: VGG's 2x2 and 1x1
maps) skips the pack, whose windows there are mostly padding zeros.
Its conv is one GEMM of the ``(N, H * W * C_in)`` input with a
block-Toeplitz weight, built from a per-geometry table of which tap
joins each input position to each output position; it does no more
multiply-adds than the pack GEMM, for any stride and padding.

Pooling is restricted to non-overlapping windows (``stride == kernel``),
which covers the VGG (2x2/2 max pool) and ResNet-20 (8x8 global average)
architectures used in the paper, and keeps both passes fully vectorised.
Max pooling, DNN and spiking, is one window kernel: :func:`pool_windows`
copies the windows into ``k*k``-long rows, :func:`window_argmax` picks
each row's first maximum and :func:`route_to_winners` scatters the
gradient back.  All layouts are NCHW.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .autograd import empty
from .tensor import Tensor


def conv2d_output_shape(
    height: int, width: int, kernel: int, stride: int, padding: int
) -> Tuple[int, int]:
    """Spatial output size of a conv/pool with square kernel."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel} / stride {stride} / padding {padding} "
            f"produce empty output for input {height}x{width}"
        )
    return out_h, out_w


def _pack(x: np.ndarray, kernel: int, stride: int) -> Tuple[np.ndarray, int, int]:
    """Pack the conv windows of a padded NCHW array channel-major.

    Returns ``(cols, out_h, out_w)`` where ``cols`` is a contiguous
    ``(C * kernel * kernel, N * out_h * out_w)`` matrix: one strided
    window view copied once, each contiguous run an output row.
    """
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x,
        shape=(c, kernel, kernel, n, out_h, out_w),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    cols = empty((c * kernel * kernel, n * out_h * out_w), x.dtype)
    np.copyto(cols.reshape(windows.shape), windows)
    return cols, out_h, out_w


@lru_cache(maxsize=128)
def _toeplitz_pairs(
    height: int, width: int, kernel: int, stride: int, padding: int
) -> Tuple[int, int, Tuple[Tuple[int, int, int], ...]]:
    """``(out_h, out_w, pairs)`` of a conv geometry.

    ``pairs`` holds a ``(q, p, tap)`` triple for each output position
    ``q`` that reads input position ``p`` through kernel tap ``tap``
    (row-major flat indices); taps that read padding are left out.  A
    pure function of the shape.
    """
    out_h, out_w = conv2d_output_shape(height, width, kernel, stride, padding)
    pairs = tuple(
        (oi * out_w + oj, i * width + j, di * kernel + dj)
        for oi, oj, di, dj in itertools.product(
            range(out_h), range(out_w), range(kernel), range(kernel)
        )
        for i, j in [(oi * stride - padding + di, oj * stride - padding + dj)]
        if 0 <= i < height and 0 <= j < width
    )
    return out_h, out_w, pairs


def _conv2d_small_map(
    x: Tensor, weight: Tensor, bias: Tensor, stride: int, padding: int
) -> Tensor:
    """``conv2d`` as one GEMM with the block-Toeplitz weight.

    Block ``(q, p)`` of the ``(oh*ow * C_out, H*W * C_in)`` weight is
    ``W[:, :, tap]`` when output ``q`` reads input ``p`` through ``tap``
    and zero otherwise, so the GEMM does ``H*W`` multiply-adds per output
    where the window pack does ``K*K``: no more when ``H*W <= K*K``.
    Rows and columns are position-major, so each block is a run of
    contiguous rows; on a 1x1 map the weight is the centre tap itself.
    """
    n, c_in, h, w = x.data.shape
    c_out, _, kernel, _ = weight.data.shape
    out_h, out_w, pairs = _toeplitz_pairs(h, w, kernel, stride, padding)
    need_dx = x.requires_grad
    taps = weight.data.reshape(c_out, c_in, -1)
    w_mat = np.zeros((out_h * out_w, c_out, h * w, c_in), dtype=weight.data.dtype)
    for q, p, tap in pairs:
        w_mat[q, :, p] = taps[:, :, tap]
    w_mat = w_mat.reshape(out_h * out_w * c_out, -1)
    # Position-major (N, H*W*C_in) rows, matching the weight's columns.
    x_mat = x.data.transpose(0, 2, 3, 1).reshape(n, -1)
    out = x_mat @ w_mat.T
    if bias is not None:
        out_rows = out.reshape(n, -1, c_out)
        np.add(out_rows, bias.data, out=out_rows)
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    def bwd(g):
        g_mat = g.transpose(0, 2, 3, 1).reshape(n, -1)
        # A tap's gradient is the sum of its blocks of the weight's gradient.
        blocks = (g_mat.T @ x_mat).reshape(out_h * out_w, c_out, h * w, c_in)
        dw = np.zeros((kernel * kernel, c_out, c_in), dtype=blocks.dtype)
        for q, p, tap in pairs:
            dw[tap] += blocks[q, :, p]
        dw = dw.transpose(1, 2, 0).reshape(weight.data.shape)
        dx = None
        if need_dx:
            dx = (g_mat @ w_mat).reshape(n, h, w, c_in).transpose(0, 3, 1, 2)
        if bias is None:
            return (dx, dw)
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out, parents, bwd, "conv2d")


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional per-filter bias of shape ``(C_out,)``.
    """
    n, c_in, h, w = x.data.shape
    c_out, c_in_w, kh, kw = weight.data.shape
    if c_in != c_in_w:
        raise ValueError(
            f"input has {c_in} channels but weight expects {c_in_w}"
        )
    if kh != kw:
        raise ValueError("only square kernels are supported")
    kernel = kh
    # Both paths reject a bad geometry here, before numpy sees it.
    conv2d_output_shape(h, w, kernel, stride, padding)
    if h * w <= kernel * kernel:
        return _conv2d_small_map(x, weight, bias, stride, padding)
    parents = (x, weight) if bias is None else (x, weight, bias)
    need_dx = x.requires_grad

    if padding:
        # Preallocate + slice-assign: cheaper than np.pad's general
        # machinery, and a no-op allocation when padding == 0.
        padded_shape = (n, c_in, h + 2 * padding, w + 2 * padding)
        x_padded = np.zeros(padded_shape, dtype=x.data.dtype)
        x_padded[:, :, padding:padding + h, padding:padding + w] = x.data
    else:
        x_padded = x.data
    # The pack feeds the forward GEMM and is kept for the weight gradient.
    cols, out_h, out_w = _pack(x_padded, kernel, stride)
    del x_padded
    w_mat = weight.data.reshape(c_out, -1)
    out = w_mat @ cols
    if bias is not None:
        np.add(out, bias.data[:, None], out=out)  # fresh GEMM output
    out = out.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3)

    def bwd(g):
        g_mat = g.transpose(1, 0, 2, 3).reshape(c_out, -1)
        dw = (g_mat @ cols.T).reshape(weight.data.shape)
        dx = None
        if need_dx:
            # Transposed convolution: dilate g by the stride and pad it by
            # kernel - 1, plus the far rows/cols no window reached (they get
            # zero gradient); correlate with the flipped filters, in and out
            # channels swapped, and keep only the unpadded input rows.
            k1 = kernel - 1
            g_pad_shape = (n, c_out, h + 2 * padding + k1, w + 2 * padding + k1)
            g_pad = np.zeros(g_pad_shape, dtype=g.dtype)
            g_pad[:, :, k1:k1 + stride * out_h:stride, k1:k1 + stride * out_w:stride] = g
            g_pad = g_pad[:, :, padding:padding + h + k1, padding:padding + w + k1]
            dcols, _, _ = _pack(g_pad, kernel, 1)
            del g_pad  # free the padded gradient before the dx GEMM
            w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            dx = w_flip.reshape(c_in, -1) @ dcols
            dx = dx.reshape(c_in, n, h, w).transpose(1, 0, 2, 3)
        if bias is None:
            return (dx, dw)
        return (dx, dw, g_mat.sum(axis=1))

    return Tensor.from_op(out, parents, bwd, "conv2d", buffers=(cols,))


def _check_pool_args(x: Tensor, kernel: int, stride: int) -> None:
    if stride != kernel:
        raise NotImplementedError(
            "pooling supports non-overlapping windows only (stride == kernel)"
        )
    n, c, h, w = x.data.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"spatial size {h}x{w} not divisible by pool kernel {kernel}"
        )


def pool_windows(a: np.ndarray, kernel: int) -> np.ndarray:
    """``(..., H, W)`` -> contiguous ``(..., H/k, W/k, k*k)`` window rows.

    One strided copy per tap, in row-major window order: faster than a
    transpose copy whose innermost run is ``k`` long.
    """
    *lead, h, w = a.shape
    rows = np.empty((*lead, h // kernel, w // kernel, kernel * kernel), dtype=a.dtype)
    for tap in range(kernel * kernel):
        di, dj = divmod(tap, kernel)
        rows[..., tap] = a[..., di::kernel, dj::kernel]
    return rows


def window_argmax(values: np.ndarray, scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per window row, the value at the first maximum of ``scores``.

    Returns ``(out, winners)``, ``winners`` being flat indices into
    ``values``; a NaN score wins, as with ``argmax``.
    """
    winners = scores.argmax(axis=-1)
    winners += np.arange(0, values.size, values.shape[-1]).reshape(winners.shape)
    return values.reshape(-1)[winners], winners


def route_to_winners(g: np.ndarray, winners: np.ndarray, kernel: int) -> np.ndarray:
    """Scatter ``g`` to its :func:`window_argmax` winners in ``(..., H, W)``.

    Every other input gets ``+0.0``.
    """
    *lead, out_h, out_w = g.shape
    rows = np.zeros((*lead, out_h, out_w, kernel * kernel), dtype=g.dtype)
    rows.reshape(-1)[winners] = g
    gx = np.empty((*lead, out_h * kernel, out_w * kernel), dtype=g.dtype)
    for tap in range(kernel * kernel):
        di, dj = divmod(tap, kernel)
        gx[..., di::kernel, dj::kernel] = rows[..., tap]
    return gx


def max_pool2d(x: Tensor, kernel: int, stride: int = None) -> Tensor:
    """Non-overlapping max pooling over ``kernel x kernel`` windows."""
    stride = kernel if stride is None else stride
    _check_pool_args(x, kernel, stride)
    rows = pool_windows(x.data, kernel)
    out, winners = window_argmax(rows, rows)

    def bwd(g):
        return (route_to_winners(g, winners, kernel),)

    return Tensor.from_op(out, (x,), bwd, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int, stride: int = None) -> Tensor:
    """Non-overlapping average pooling over ``kernel x kernel`` windows."""
    stride = kernel if stride is None else stride
    _check_pool_args(x, kernel, stride)
    n, c, h, w = x.data.shape
    out_h, out_w = h // kernel, w // kernel
    windows = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    out = windows.mean(axis=(3, 5))
    inv_area = 1.0 / (kernel * kernel)

    def bwd(g):
        g_win = np.broadcast_to(
            g[:, :, :, None, :, None] * inv_area,
            (n, c, out_h, kernel, out_w, kernel),
        )
        return (g_win.reshape(n, c, h, w).copy(),)

    return Tensor.from_op(out, (x,), bwd, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))
