"""Autograd graph mechanics: accumulation, no_grad, deep unrolls,
graph release and the buffer hand-off."""

import weakref

import numpy as np
import pytest

from repro.tensor import GradMode, Tensor, conv2d, no_grad, relu
from repro.tensor import autograd
from repro.tensor.autograd import empty, empty_like, recycle_buffers


class TestBackward:
    def test_scalar_backward(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([3.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_diamond_graph_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = (y + y * 3.0).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_reused_leaf(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_non_scalar_requires_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="non-scalar"):
            (x * 2.0).backward()

    def test_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_wrong_grad_shape_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="shape"):
            (x * 3.0).backward(np.array([1.0]))

    def test_no_grad_path_untouched(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=False)
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0])
        assert y.grad is None

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_does_not_recurse(self):
        # Deep SNN unrolls create graphs far beyond Python's default
        # recursion limit; the traversal must be iterative.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestGraphRelease:
    def test_second_backward_raises_naming_the_op(self):
        x = Tensor([3.0], requires_grad=True)
        loss = (x * 2.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="'sum'.*earlier backward"):
            loss.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_new_graph_through_released_node_raises(self):
        # A released intermediate must not pass for a leaf: it would
        # silently swallow the gradient into its own .grad.
        x = Tensor([3.0], requires_grad=True)
        y = x * 2.0
        y.sum().backward()
        with pytest.raises(RuntimeError, match="'mul'"):
            (y * 3.0).sum().backward()
        assert y.grad is None
        np.testing.assert_allclose(x.grad, [2.0])

    def test_backward_releases_every_node(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        h = x @ w
        a = relu(h)
        b = a + h
        loss = (b * b).mean()
        intermediates = [h, a, b, loss]
        loss.backward()
        for tensor in intermediates:
            node = tensor._node
            assert node.parents == ()
            assert node.backward_fn is None
            assert node.buffers == ()
        assert x._node is None and w._node is None
        assert x.grad is not None and w.grad is not None

    def test_conv_pack_is_garbage_after_backward(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = conv2d(x, weight, padding=1)
        (cols,) = out._node.buffers
        pack = weakref.ref(cols)
        del cols
        out.sum().backward()
        assert pack() is None
        assert out._node.backward_fn is None


class TestBufferHandOff:
    @staticmethod
    def _conv_step(x, weight):
        out = conv2d(x, weight, padding=1)
        (out * out).sum().backward()
        return out

    def test_next_step_reuses_the_released_pack(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        reference = self._conv_step(x, weight)
        reference_grad = weight.grad.copy()
        weight.zero_grad()
        with recycle_buffers():
            first = self._conv_step(x, weight)
            (released,) = autograd._spare.values()
            pack = released[0]
            weight.zero_grad()
            out = conv2d(x, weight, padding=1)
            assert out._node.buffers[0] is pack
            (out * out).sum().backward()
        assert autograd._spare is None
        np.testing.assert_array_equal(first.data, reference.data)
        np.testing.assert_array_equal(out.data, reference.data)
        np.testing.assert_array_equal(weight.grad, reference_grad)

    def test_unclaimed_buffers_dropped_at_next_backward(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        with recycle_buffers():
            self._conv_step(x, weight)
            pack = weakref.ref(next(iter(autograd._spare.values()))[0])
            (x * 2.0).sum().backward()
            assert pack() is None
            assert autograd._spare == {}

    def test_outside_a_block_backward_only_releases(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        self._conv_step(x, weight)
        assert autograd._spare is None

    @pytest.mark.parametrize("axes", [(0, 1, 2, 3), (1, 0, 2, 3), (2, 3, 0, 1)])
    def test_recycled_buffer_keeps_numpy_layout(self, rng, axes):
        like = np.ascontiguousarray(rng.normal(size=(3, 2, 4, 1))).transpose(axes)
        like_layout, c_layout = np.empty_like(like), np.empty(like.shape)
        with recycle_buffers():
            Tensor.from_op(
                like, (Tensor(like, requires_grad=True),), lambda g: (g,),
                "probe", buffers=(like_layout, c_layout),
            ).backward(np.ones_like(like))
            reused = empty_like(like)
            assert reused is like_layout or reused is c_layout
            assert reused.strides == np.empty_like(like).strides
            c_buffer = empty(like.shape, like.dtype)
            assert c_buffer.flags.c_contiguous
            assert empty(like.shape, bool).dtype == np.dtype(bool)


class TestGradMode:
    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._node is None

    def test_no_grad_restores(self):
        assert GradMode.is_enabled()
        with no_grad():
            assert not GradMode.is_enabled()
        assert GradMode.is_enabled()

    def test_no_grad_decorator(self):
        @no_grad()
        def fn(t):
            return t * 3.0

        x = Tensor([1.0], requires_grad=True)
        assert not fn(x).requires_grad

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                assert not GradMode.is_enabled()
            assert not GradMode.is_enabled()
        assert GradMode.is_enabled()

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        d = (x * 2.0).detach()
        assert not d.requires_grad
        y = d * 3.0
        assert not y.requires_grad


class TestTensorBasics:
    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_item_and_numpy(self):
        t = Tensor([5.0])
        assert t.item() == 5.0
        assert t.numpy() is t.data

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0
        np.testing.assert_allclose(Tensor.full((2,), 7.0).data, [7.0, 7.0])

    def test_wraps_tensor(self):
        inner = Tensor([1.0])
        outer = Tensor(inner)
        np.testing.assert_allclose(outer.data, [1.0])

    def test_len_size_ndim(self, rng):
        t = Tensor(rng.normal(size=(3, 4)))
        assert len(t) == 3
        assert t.size == 12
        assert t.ndim == 2
        assert t.dtype == np.float64

    def test_comparisons_return_arrays(self):
        t = Tensor([1.0, 3.0])
        mask = t > 2.0
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [False, True])
        np.testing.assert_array_equal(t >= 3.0, [False, True])
        np.testing.assert_array_equal(t < 2.0, [True, False])
        np.testing.assert_array_equal(t <= 1.0, [True, False])
