"""Convolution / pooling correctness against naive reference implementations."""

import itertools

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    check_gradients,
    conv2d,
    conv2d_output_shape,
    default_dtype,
    global_avg_pool2d,
    max_pool2d,
)


def naive_conv2d(x, w, b, stride, padding):
    """Straightforward loop reference for cross-correlation."""
    n, c_in, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - k) // stride + 1
    out_w = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = x[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = np.einsum("nchw,ochw->no", patch, w)
    if b is not None:
        out += b[None, :, None, None]
    return out


def naive_conv2d_adjoint(x, w, g, stride, padding):
    """Loop adjoint of :func:`naive_conv2d`: ``(dx, dw, db)`` for grad ``g``."""
    h, wdt = x.shape[2:]
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            rows = slice(i * stride, i * stride + k)
            cols = slice(j * stride, j * stride + k)
            dxp[:, :, rows, cols] += np.einsum("no,ochw->nchw", g[:, :, i, j], w)
            dw += np.einsum("no,nchw->ochw", g[:, :, i, j], xp[:, :, rows, cols])
    dx = dxp[:, :, padding : padding + h, padding : padding + wdt]
    return dx, dw, g.sum(axis=(0, 2, 3))


def assert_rel_close(actual, expected, rtol=1e-12):
    """Elementwise ``rtol`` with an absolute floor of ``rtol * max|expected|``."""
    scale = max(np.abs(expected).max(), 1.0)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


# stride x padding x kernel x map, minus geometries with an empty output.
# Maps of 1 include the 1x1-map centre-tap path; the strided ones include
# input rows no window reaches.
ADJOINT_GRID = [
    (s, p, k, m)
    for s, p, k, m in itertools.product([1, 2, 3], [0, 1, 2], [1, 3, 5], [1, 2, 5, 7, 8])
    if m + 2 * p >= k
]


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive(self, rng, stride, padding):
        x = Tensor(rng.normal(size=(2, 3, 9, 9)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        b = Tensor(rng.normal(size=(4,)))
        out = conv2d(x, w, b, stride=stride, padding=padding)
        expected = naive_conv2d(x.data, w.data, b.data, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_no_bias(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        out = conv2d(x, w, None, stride=1, padding=0)
        expected = naive_conv2d(x.data, w.data, None, 1, 0)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_1x1_kernel(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 6, 6)))
        w = Tensor(rng.normal(size=(8, 4, 1, 1)))
        out = conv2d(x, w, None, stride=2)
        expected = naive_conv2d(x.data, w.data, None, 2, 0)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda a, ww, bb: conv2d(a, ww, bb, stride=1, padding=1),
            [x, w, b],
            atol=1e-4,
        )
        check_gradients(
            lambda a, ww, bb: conv2d(a, ww, bb, stride=2, padding=0),
            [x, w, b],
            atol=1e-4,
        )

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("stride,padding,kernel,size", ADJOINT_GRID)
    def test_exact_adjoint(self, rng, stride, padding, kernel, size, with_bias):
        x = Tensor(rng.normal(size=(2, 3, size, size)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, kernel, kernel)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True) if with_bias else None
        out = conv2d(x, w, b, stride=stride, padding=padding)
        expected = naive_conv2d(x.data, w.data, b.data if with_bias else None, stride, padding)
        assert_rel_close(out.data, expected)
        g = rng.normal(size=out.shape)
        out.backward(g)
        dx, dw, db = naive_conv2d_adjoint(x.data, w.data, g, stride, padding)
        assert_rel_close(x.grad, dx)
        assert_rel_close(w.grad, dw)
        if with_bias:
            assert_rel_close(b.grad, db)

    @pytest.mark.parametrize("size,padding", [(6, 1), (1, 1)])
    def test_float32_preserved(self, rng, size, padding):
        with default_dtype(np.float32):
            x = Tensor(rng.normal(size=(2, 3, size, size)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(4,)), requires_grad=True)
            out = conv2d(x, w, b, padding=padding)
            out.sum().backward()
        assert out.dtype == np.float32
        assert x.grad.dtype == w.grad.dtype == b.grad.dtype == np.float32

    @pytest.mark.parametrize("size", [6, 1])
    def test_input_without_grad_skips_dx(self, rng, size):
        data = rng.normal(size=(2, 3, size, size))
        w_data = rng.normal(size=(4, 3, 3, 3))
        g = rng.normal(size=(2, 4, size, size))
        grads = {}
        for x_grad in (False, True):
            x = Tensor(data, requires_grad=x_grad)
            w = Tensor(w_data, requires_grad=True)
            out = conv2d(x, w, None, padding=1)
            if not x_grad:
                # A stem conv on raw images: backward computes no dx at all.
                assert out._node.backward_fn(g)[0] is None
            out.backward(g)
            grads[x_grad] = (x.grad, w.grad)
        assert grads[False][0] is None
        np.testing.assert_array_equal(grads[False][1], grads[True][1])

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 5, 5)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv2d(x, w)

    def test_rect_kernel_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = Tensor(rng.normal(size=(1, 1, 3, 2)))
        with pytest.raises(ValueError, match="square"):
            conv2d(x, w)

    def test_output_shape_helper(self):
        assert conv2d_output_shape(32, 32, 3, 1, 1) == (32, 32)
        assert conv2d_output_shape(32, 32, 3, 2, 1) == (16, 16)
        with pytest.raises(ValueError):
            conv2d_output_shape(2, 2, 5, 1, 0)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.data, [[[[5, 7], [13, 15]]]])

    def test_max_pool_gradient_first_tie_wins(self):
        data = np.zeros((1, 1, 2, 2))
        x = Tensor(data, requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        assert x.grad.sum() == 1.0  # gradient routed to exactly one element

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_pool_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        check_gradients(lambda a: max_pool2d(a, 2), [x])
        check_gradients(lambda a: avg_pool2d(a, 2), [x])

    def test_overlapping_pool_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        with pytest.raises(NotImplementedError):
            max_pool2d(x, 2, stride=1)

    def test_indivisible_pool_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        with pytest.raises(ValueError):
            avg_pool2d(x, 2)

    def test_global_avg_pool(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        out = global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))
        check_gradients(lambda a: global_avg_pool2d(a), [x])
