"""Differentiable 2-D convolution and pooling primitives.

Convolution is one GEMM over a channel-major window pack: a single
strided view of the (padded) input, copied once into a
``(C_in * K * K, N * out_h * out_w)`` matrix whose contiguous runs are
rows of outputs.  The same pack serves the forward GEMM and the weight
gradient.  The input gradient is the transposed convolution of the
output gradient -- dilated by the stride, zero-padded, packed the same
way at stride 1 and multiplied by the flipped, channel-swapped filters
-- and is skipped when the input needs no gradient.  On a 1x1 map with
"same" padding only the centre tap sees data, so the conv is a dense
``(N, C_in) @ (C_in, C_out)`` product.

Pooling is restricted to non-overlapping windows (``stride == kernel``),
which covers the VGG (2x2/2 max pool) and ResNet-20 (8x8 global average)
architectures used in the paper, and keeps both passes fully vectorised.
All layouts are NCHW.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor


def conv2d_output_shape(
    height: int, width: int, kernel: int, stride: int, padding: int
) -> Tuple[int, int]:
    """Spatial output size of a conv/pool with square kernel."""
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
    cols = np.ascontiguousarray(windows).reshape(c * kernel * kernel, -1)
    return cols, out_h, out_w


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
    parents = (x, weight) if bias is None else (x, weight, bias)
    need_dx = x.requires_grad

    if h == w == 1 and kernel % 2 and padding == kernel // 2:
        # 1x1 map with "same" padding: every other tap multiplies zeros.
        x_mat = x.data.reshape(n, c_in)
        w_centre = weight.data[:, :, padding, padding]
        out = x_mat @ w_centre.T
        if bias is not None:
            np.add(out, bias.data, out=out)

        def bwd_centre(g):
            g_mat = g.reshape(n, c_out)
            dw = np.zeros_like(weight.data)
            dw[:, :, padding, padding] = g_mat.T @ x_mat
            dx = (g_mat @ w_centre).reshape(n, c_in, 1, 1) if need_dx else None
            if bias is None:
                return (dx, dw)
            return (dx, dw, g_mat.sum(axis=0))

        out = out.reshape(n, c_out, 1, 1)
        return Tensor.from_op(out, parents, bwd_centre, "conv2d")

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

    return Tensor.from_op(out, parents, bwd, "conv2d")


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


def max_pool2d(x: Tensor, kernel: int, stride: int = None) -> Tensor:
    """Non-overlapping max pooling over ``kernel x kernel`` windows."""
    stride = kernel if stride is None else stride
    _check_pool_args(x, kernel, stride)
    n, c, h, w = x.data.shape
    out_h, out_w = h // kernel, w // kernel
    windows = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    out = windows.max(axis=(3, 5))
    mask = windows == out[:, :, :, None, :, None]
    # Break ties: keep only the first max per window so the gradient is
    # routed to exactly one element (matches framework conventions).
    flat = mask.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, out_h, out_w, -1)
    first = flat.cumsum(axis=-1) == 1
    routed = (flat & first).reshape(n, c, out_h, out_w, kernel, kernel)
    routed = routed.transpose(0, 1, 2, 4, 3, 5)

    def bwd(g):
        g_win = g[:, :, :, None, :, None] * routed
        return (g_win.reshape(n, c, h, w),)

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
