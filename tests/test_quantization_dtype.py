"""Weight-quantization and default-dtype tests."""

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.hw import precision_sweep, quantize_array, quantize_weights
from repro.models import vgg11
from repro.tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.train import evaluate_snn


class TestQuantizeArray:
    def test_levels(self, rng):
        values = rng.normal(size=100)
        quantized = quantize_array(values, bits=3)
        # 3 bits -> levels in {-3..3} * delta: at most 7 distinct values.
        assert len(np.unique(quantized)) <= 7

    def test_preserves_max(self, rng):
        values = rng.normal(size=50)
        quantized = quantize_array(values, bits=8)
        assert np.abs(quantized).max() == pytest.approx(np.abs(values).max(), rel=1e-2)

    def test_more_bits_less_error(self, rng):
        values = rng.normal(size=1000)
        err = {
            bits: np.abs(quantize_array(values, bits) - values).mean()
            for bits in (2, 4, 8)
        }
        assert err[8] < err[4] < err[2]

    def test_zero_array(self):
        out = quantize_array(np.zeros(5), bits=4)
        np.testing.assert_allclose(out, 0.0)

    def test_subnormal_step_underflow_stays_finite(self):
        # max|w| / levels underflows to 0 here; dividing by it gave NaN.
        values = np.array([5e-324, 0.0])
        np.testing.assert_array_equal(quantize_array(values, bits=3), values)

    def test_rejects_one_bit(self, rng):
        with pytest.raises(ValueError):
            quantize_array(rng.normal(size=3), bits=1)


class TestQuantizeWeights:
    @pytest.fixture()
    def snn_setup(self):
        rng = np.random.default_rng(0)
        model = vgg11(
            num_classes=5, image_size=8, width_multiplier=0.125,
            rng=np.random.default_rng(1),
        )
        loader = DataLoader(rng.random((12, 3, 8, 8)), rng.integers(0, 5, 12), 12)
        conversion = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2))
        return model, loader, conversion

    def test_reports_snr_per_layer(self, snn_setup):
        _model, _loader, conversion = snn_setup
        report = quantize_weights(conversion.snn, bits=8)
        assert len(report) == 10  # vgg11 at 8x8: 8 convs + 2 linears
        assert all(snr > 20.0 for snr in report.values())  # 8-bit is clean

    def test_low_bits_low_snr(self, snn_setup):
        _model, _loader, conversion = snn_setup
        report = quantize_weights(conversion.snn, bits=2)
        assert all(snr < 20.0 for snr in report.values())

    def test_precision_sweep_monotone_ish(self, snn_setup):
        model, loader, _conversion = snn_setup

        def make():
            return convert_dnn_to_snn(
                model, loader, ConversionConfig(timesteps=2)
            ).snn

        results = precision_sweep(
            make, lambda snn: evaluate_snn(snn, loader), bit_widths=(2, 8)
        )
        assert [bits for bits, _ in results] == [2, 8]
        for _bits, accuracy in results:
            assert 0.0 <= accuracy <= 1.0

    def test_rejects_weightless_model(self):
        from repro.nn import ReLU, Sequential

        with pytest.raises(ValueError):
            quantize_weights(Sequential(ReLU()), bits=4)


class TestDefaultDtype:
    def test_default_is_float64(self):
        assert np.dtype(get_default_dtype()) == np.dtype(np.float64)

    def test_context_manager(self):
        with default_dtype(np.float32):
            t = Tensor([1.0])
            assert t.dtype == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_float32_forward_backward(self, rng):
        with default_dtype(np.float32):
            from repro.tensor import conv2d

            x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
            out = conv2d(x, w, stride=1, padding=1)
            assert out.dtype == np.float32
            out.sum().backward()
            assert x.grad.dtype == np.float32

    def test_rejects_int_dtype(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_constructors_follow_default(self):
        with default_dtype(np.float32):
            assert Tensor.zeros(2, 2).dtype == np.float32
            assert Tensor.ones(2).dtype == np.float32


class TestFloat32FastPath:
    """A model built under float32 must stay float32 end to end —
    parameters, encoders, and every intermediate activation (regression:
    float64 used to leak in via init, layer biases, and encoders)."""

    def _build_snn(self, mode):
        rng = np.random.default_rng(0)
        model = vgg11(
            num_classes=5, image_size=8, width_multiplier=0.125,
            rng=np.random.default_rng(1),
        )
        loader = DataLoader(
            rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8
        )
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
        snn.mode = mode
        snn.eval()
        return model, snn

    def test_dnn_params_and_activations_float32(self):
        with default_dtype(np.float32):
            model, _snn = self._build_snn("stepwise")
            for name, param in model.named_parameters():
                assert param.data.dtype == np.float32, name
            rng = np.random.default_rng(2)
            x = Tensor(rng.random((3, 3, 8, 8)))
            for layer in list(model.features) + list(model.classifier):
                x = layer(x)
                assert x.data.dtype == np.float32, type(layer).__name__
            for bn_layer in [m for m in model.modules()
                             if type(m).__name__ == "BatchNorm2d"]:
                assert bn_layer.running_mean.dtype == np.float32
                assert bn_layer.running_var.dtype == np.float32

    @pytest.mark.parametrize("mode", ["stepwise", "fused"])
    def test_snn_params_and_activations_float32(self, mode):
        with default_dtype(np.float32):
            _model, snn = self._build_snn(mode)
            for name, param in snn.named_parameters():
                assert param.data.dtype == np.float32, name
            rng = np.random.default_rng(2)
            out = snn(rng.random((3, 3, 8, 8)))
            assert out.data.dtype == np.float32
            for neuron in snn.spiking_neurons():
                assert neuron.membrane.data.dtype == np.float32

    def test_encoders_follow_default_dtype(self):
        from repro.snn import DirectEncoder, PoissonEncoder, TTFSEncoder

        rng = np.random.default_rng(0)
        images = rng.random((2, 1, 4, 4))
        with default_dtype(np.float32):
            for encoder in (
                DirectEncoder(),
                PoissonEncoder(rng=np.random.default_rng(1)),
                TTFSEncoder(),
            ):
                for frame in encoder(images, 3):
                    assert frame.dtype == np.float32, type(encoder).__name__

    def test_float32_sgl_gradients_stay_float32(self):
        with default_dtype(np.float32):
            _model, snn = self._build_snn("fused")
            snn.train()
            rng = np.random.default_rng(3)
            out = snn(rng.random((2, 3, 8, 8)))
            out.sum().backward()
            for name, param in snn.named_parameters():
                if param.grad is not None:
                    assert param.grad.dtype == np.float32, name
