"""FGSM attacks and the avg-pool VGG variant."""

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import vgg11
from repro.nn import AvgPool2d, MaxPool2d
from repro.tensor import Tensor
from repro.train import fgsm_accuracy, fgsm_attack


@pytest.fixture(scope="module")
def attack_setup(tiny_context):
    """Trained tiny DNN + converted SNN + a clean test batch."""
    conversion = convert_dnn_to_snn(
        tiny_context.model, tiny_context.calibration_loader(),
        ConversionConfig(timesteps=2),
    )
    images, labels = next(iter(tiny_context.test_loader()))
    return tiny_context.model, conversion.snn, images, labels


class TestFGSM:
    def test_zero_epsilon_identity(self, attack_setup):
        model, _snn, images, labels = attack_setup
        out = fgsm_attack(model, images, labels, epsilon=0.0)
        np.testing.assert_allclose(out, images)

    def test_perturbation_bounded(self, attack_setup):
        model, _snn, images, labels = attack_setup
        adversarial = fgsm_attack(model, images, labels, epsilon=0.1)
        assert np.abs(adversarial - images).max() <= 0.1 + 1e-12

    def test_attack_reduces_dnn_accuracy(self, attack_setup, tiny_context):
        model, _snn, _images, _labels = attack_setup
        clean = fgsm_accuracy(model, tiny_context.test_loader(), epsilon=0.0)
        attacked = fgsm_accuracy(model, tiny_context.test_loader(), epsilon=0.5)
        assert attacked <= clean

    def test_snn_input_gradient_flows(self, attack_setup):
        _model, snn, images, labels = attack_setup
        adversarial = fgsm_attack(snn, images, labels, epsilon=0.1)
        assert adversarial.shape == images.shape
        assert not np.allclose(adversarial, images)

    def test_snn_attack_accuracy_runs(self, attack_setup, tiny_context):
        _model, snn, _images, _labels = attack_setup
        accuracy = fgsm_accuracy(
            snn, tiny_context.test_loader(), epsilon=0.2, max_batches=1
        )
        assert 0.0 <= accuracy <= 1.0

    def test_negative_epsilon_rejected(self, attack_setup):
        model, _snn, images, labels = attack_setup
        with pytest.raises(ValueError):
            fgsm_attack(model, images, labels, epsilon=-0.1)

    def test_empty_batches_rejected(self, attack_setup):
        model, *_ = attack_setup
        with pytest.raises(ValueError):
            fgsm_accuracy(model, [], epsilon=0.1)


class TestAvgPoolVariant:
    def test_avg_pool_vgg_builds(self, rng):
        m = vgg11(
            num_classes=5, image_size=16, width_multiplier=0.125,
            pool="avg", rng=rng,
        )
        pools = [l for l in m.features if isinstance(l, AvgPool2d)]
        assert pools
        assert not any(isinstance(l, MaxPool2d) for l in m.features)
        assert m(Tensor(rng.normal(size=(1, 3, 16, 16)))).shape == (1, 5)

    def test_avg_pool_vgg_converts(self, rng):
        m = vgg11(
            num_classes=5, image_size=8, width_multiplier=0.125,
            pool="avg", rng=np.random.default_rng(0),
        )
        loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
        conversion = convert_dnn_to_snn(m, loader, ConversionConfig(timesteps=2))
        images, _ = next(iter(loader))
        assert conversion.snn(images).shape == (8, 5)

    def test_invalid_pool_rejected(self, rng):
        with pytest.raises(ValueError):
            vgg11(pool="median", rng=rng)
