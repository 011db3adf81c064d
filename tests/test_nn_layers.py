"""Unit tests for the NN layer library (module mechanics + layers)."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    Conv2d,
    CrossEntropyLoss,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MSELoss,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    ThresholdReLU,
    tap,
)
from repro.nn.activations import ActivationRecorder
from repro.tensor import Tensor


class TestModule:
    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))

        m = M()
        names = dict(m.named_parameters())
        assert "w" in names and names["w"].requires_grad

    def test_submodule_registration_and_prefixing(self, rng):
        seq = Sequential(Linear(2, 3, rng=rng), Linear(3, 1, rng=rng))
        names = [n for n, _ in seq.named_parameters()]
        assert "0.weight" in names and "1.bias" in names

    def test_train_eval_propagates(self, rng):
        seq = Sequential(Dropout(0.5), Linear(2, 2, rng=rng))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_state_dict_roundtrip(self, rng):
        a = Linear(4, 3, rng=rng)
        b = Linear(4, 3, rng=np.random.default_rng(99))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_state_dict_strict_mismatch(self, rng):
        a = Linear(4, 3, rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({"nope": np.zeros(3)})

    def test_state_dict_shape_mismatch(self, rng):
        a = Linear(4, 3, rng=rng)
        state = a.state_dict()
        state["weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_zero_grad(self, rng):
        layer = Linear(2, 2, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_num_parameters(self, rng):
        layer = Linear(4, 3, bias=True, rng=rng)
        assert layer.num_parameters() == 4 * 3 + 3

    def test_repr_contains_children(self, rng):
        seq = Sequential(Linear(2, 2, rng=rng))
        assert "Linear" in repr(seq)


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        out = layer(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ layer.weight.data.T + layer.bias.data
        )

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert layer(Tensor(rng.normal(size=(2, 4)))).shape == (2, 3)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)


class TestConvLayer:
    def test_shapes(self, rng):
        layer = Conv2d(3, 8, 3, stride=1, padding=1, rng=rng)
        assert layer(Tensor(rng.normal(size=(2, 3, 8, 8)))).shape == (2, 8, 8, 8)

    def test_stride_downsamples(self, rng):
        layer = Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
        assert layer(Tensor(rng.normal(size=(1, 3, 8, 8)))).shape == (1, 4, 4, 4)

    def test_bias_option(self, rng):
        assert Conv2d(1, 1, 3, bias=True, rng=rng).bias is not None
        assert Conv2d(1, 1, 3, rng=rng).bias is None

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, 0)


class TestPoolingLayers:
    def test_max_pool_layer(self, rng):
        assert MaxPool2d(2)(Tensor(rng.normal(size=(1, 2, 4, 4)))).shape == (1, 2, 2, 2)

    def test_avg_pool_layer(self, rng):
        assert AvgPool2d(2)(Tensor(rng.normal(size=(1, 2, 4, 4)))).shape == (1, 2, 2, 2)

    def test_global_avg_pool_layer(self, rng):
        assert GlobalAvgPool2d()(Tensor(rng.normal(size=(2, 5, 4, 4)))).shape == (2, 5)


class TestActivations:
    def test_relu_layer(self, rng):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_threshold_relu_clip(self):
        layer = ThresholdReLU(init_threshold=1.5)
        out = layer(Tensor(np.array([-1.0, 1.0, 9.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0, 1.5])

    def test_threshold_getter_setter(self):
        layer = ThresholdReLU(init_threshold=2.0)
        assert layer.threshold == 2.0
        layer.set_threshold(3.0)
        assert layer.threshold == 3.0
        with pytest.raises(ValueError):
            layer.set_threshold(-1.0)

    def test_threshold_trainability(self):
        assert ThresholdReLU(trainable=False).mu.requires_grad is False
        assert ThresholdReLU().mu.requires_grad is True

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ThresholdReLU(init_threshold=0.0)

    def test_recorder_collects_preactivations(self, rng):
        layer = ThresholdReLU(init_threshold=1.0)
        recorder = ActivationRecorder()
        x = rng.normal(size=(2, 3))
        with tap(layer, lambda _layer, inp, _out: recorder.record(inp.data)):
            layer(Tensor(x))
        layer(Tensor(x))  # the tap is gone: nothing more recorded
        np.testing.assert_allclose(np.sort(recorder.values()), np.sort(x.reshape(-1)))

    def test_recorder_max_samples(self, rng):
        recorder = ActivationRecorder(max_samples=10)
        recorder.record(rng.normal(size=100))
        recorder.record(rng.normal(size=100))
        assert len(recorder) <= 10

    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "float32", "strided"])
    def test_recorder_keeps_its_own_copy(self, rng, layout):
        """Recorded samples are those of the C-order flattening (strided
        down to the bound), and writing to the input afterwards leaves
        them unchanged, whether the flattening copied or not."""
        x = rng.normal(size=(4, 6, 5))
        max_samples = None
        if layout == "transposed":
            x = x.transpose(0, 2, 1)
        elif layout == "float32":
            x = x.astype(np.float32)
        elif layout == "strided":
            x = x.transpose(2, 0, 1)
            max_samples = 33
        expected = np.asarray(x, dtype=np.float64).reshape(-1)
        if max_samples is not None:
            expected = expected[:: expected.size // max_samples][:max_samples]
        expected = expected.copy()
        recorder = ActivationRecorder(max_samples=max_samples)
        recorder.record(x)
        x[...] = 7.0
        assert recorder.values().tobytes() == expected.tobytes()

    def test_recorder_clear(self, rng):
        recorder = ActivationRecorder()
        recorder.record(rng.normal(size=5))
        recorder.clear()
        assert recorder.values().size == 0


class TestDropoutLayer:
    def test_eval_identity(self, rng):
        layer = Dropout(0.9, rng=rng)
        layer.eval()
        x = Tensor(rng.normal(size=(4, 4)))
        assert layer(x) is x

    def test_train_zeroes_units(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((100, 100))))
        assert (out.data == 0).mean() > 0.4

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSequential:
    def test_indexing_and_iteration(self, rng):
        seq = Sequential(Linear(2, 3, rng=rng), ReLU(), Linear(3, 1, rng=rng))
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        assert isinstance(seq[0:2], Sequential)
        assert len(list(seq)) == 3

    def test_append(self, rng):
        seq = Sequential()
        seq.append(Linear(2, 2, rng=rng))
        assert len(seq) == 1

    def test_forward_chains(self, rng):
        seq = Sequential(Flatten(), Linear(4, 2, rng=rng))
        assert seq(Tensor(rng.normal(size=(3, 2, 2)))).shape == (3, 2)

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        loss = CrossEntropyLoss()(Tensor(logits), labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), labels].mean()
        np.testing.assert_allclose(loss.item(), expected, atol=1e-12)

    def test_cross_entropy_gradient_direction(self, rng):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        CrossEntropyLoss()(logits, np.array([1])).backward()
        # gradient should push up the true class (negative grad there)
        assert logits.grad[0, 1] < 0
        assert logits.grad[0, 0] > 0

    def test_label_smoothing_raises_loss_floor(self, rng):
        logits = Tensor(np.array([[100.0, 0.0, 0.0]]))
        labels = np.array([0])
        plain = CrossEntropyLoss()(logits, labels).item()
        smoothed = CrossEntropyLoss(label_smoothing=0.2)(logits, labels).item()
        assert smoothed > plain

    def test_cross_entropy_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(Tensor(rng.normal(size=(3,))), np.array([0]))

    def test_mse(self):
        loss = MSELoss()(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 2.5)
