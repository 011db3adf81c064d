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
# Maps with H*W <= K*K take the block-Toeplitz GEMM (for K=3: 1, 2, the
# boundary 3, and 1x4, 2x3, 4x1), the rest the window pack (for K=3: 2x5
# and 3x4); the strided ones include input rows no window reaches.
ADJOINT_GRID = [
    (s, p, k, m)
    for s, p, k, m in itertools.product([1, 2, 3], [0, 1, 2], [1, 3, 5], [1, 2, 3, 5, 7, 8])
    if m + 2 * p >= k
] + [
    pytest.param(s, p, k, (mh, mw), id=f"{s}-{p}-{k}-{mh}x{mw}")
    for s, p, k, (mh, mw) in itertools.product(
        [1, 2, 3], [0, 1, 2], [1, 3, 5], [(1, 4), (2, 3), (4, 1), (2, 5), (3, 4)]
    )
    if min(mh, mw) + 2 * p >= k
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
        height, width = (size, size) if isinstance(size, int) else size
        x = Tensor(rng.normal(size=(2, 3, height, width)), requires_grad=True)
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

    @pytest.mark.parametrize("size,padding", [(6, 1), (1, 1), (2, 1)])
    def test_float32_preserved(self, rng, size, padding):
        with default_dtype(np.float32):
            x = Tensor(rng.normal(size=(2, 3, size, size)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(4,)), requires_grad=True)
            out = conv2d(x, w, b, padding=padding)
            out.sum().backward()
        assert out.dtype == np.float32
        assert x.grad.dtype == w.grad.dtype == b.grad.dtype == np.float32

    @pytest.mark.parametrize("size", [6, 1, 2])
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

    def test_small_maps_skip_the_window_pack(self, rng, monkeypatch):
        """Maps of 2x2 and 3x3 under a 3x3 kernel (H*W <= K*K) never pack
        windows; a 4x4 map packs for the forward and for ``dx``."""
        from repro.tensor import conv_ops

        packed = []
        real_pack = conv_ops._pack

        def no_pack(*args):
            raise AssertionError("_pack ran on a small map")

        def spy_pack(*args):
            packed.append(args[0].shape)
            return real_pack(*args)

        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        monkeypatch.setattr(conv_ops, "_pack", no_pack)
        for size in (2, 3):
            x = Tensor(rng.normal(size=(2, 3, size, size)), requires_grad=True)
            conv2d(x, w, padding=1).sum().backward()
        monkeypatch.setattr(conv_ops, "_pack", spy_pack)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        conv2d(x, w, padding=1).sum().backward()
        assert len(packed) == 2

    @pytest.mark.parametrize(
        "size,stride,padding,match",
        [(5, 0, 1, "stride"), (1, 1, 0, "empty output"), (5, 1, -1, "padding")],
        ids=["zero-stride", "empty-output", "negative-padding"],
    )
    def test_bad_geometry_raises(self, rng, size, stride, padding, match):
        x = Tensor(rng.normal(size=(1, 2, size, size)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        with pytest.raises(ValueError, match=match):
            conv2d(x, w, stride=stride, padding=padding)

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


def naive_max_pool2d(x, k, g):
    """Per-window loop reference: the first maximum in row-major window
    order wins, and the output gradient ``g`` is routed to it alone."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // k, w // k))
    grad = np.zeros_like(x)
    for b, ch, i, j in itertools.product(range(n), range(c), range(h // k), range(w // k)):
        best = None
        for di, dj in itertools.product(range(k), range(k)):
            v = x[b, ch, i * k + di, j * k + dj]
            if best is None or v > best[0]:
                best = (v, di, dj)
        out[b, ch, i, j] = best[0]
        grad[b, ch, i * k + best[1], j * k + best[2]] = g[b, ch, i, j]
    return out, grad


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

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind", ["relu", "rounded", "spikes"])
    def test_max_pool_matches_window_loop(self, rng, k, kind):
        raw = rng.normal(size=(2, 3, 2 * k, 3 * k))
        data = {
            "relu": np.maximum(raw, 0.0),
            "rounded": np.round(raw),
            "spikes": (raw > 0.3).astype(float),
        }[kind]
        g = rng.normal(size=(2, 3, 2, 3))
        want_out, want_grad = naive_max_pool2d(data, k, g)
        x = Tensor(data, requires_grad=True)
        out = max_pool2d(x, k)
        out.backward(g)
        np.testing.assert_array_equal(out.data, want_out)
        assert (x.grad == want_grad).all()

    def test_max_pool_nan_window_yields_nan(self):
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        data[0, 0, 1, 0] = np.nan
        out = max_pool2d(Tensor(data), 2).data
        assert np.isnan(out[0, 0, 0, 0])
        np.testing.assert_array_equal(out[0, 0].ravel()[1:], [7.0, 13.0, 15.0])

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
