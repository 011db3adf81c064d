"""Checkpointing and CLI utilities."""

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import vgg11
from repro.tensor import Tensor, no_grad
from repro.utils import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def model_and_loader():
    rng = np.random.default_rng(3)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(0),
    )
    loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
    return model, loader


class TestDNNCheckpoint:
    def test_roundtrip(self, model_and_loader, tmp_path, rng):
        model, _ = model_and_loader
        path = save_checkpoint(model, str(tmp_path / "model"))
        assert path.endswith(".npz")
        clone = vgg11(
            num_classes=5, image_size=8, width_multiplier=0.125,
            rng=np.random.default_rng(99),
        )
        load_checkpoint(clone, path)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        model.eval(), clone.eval()
        with no_grad():
            np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_strict_mismatch_raises(self, model_and_loader, tmp_path):
        model, _ = model_and_loader
        path = save_checkpoint(model, str(tmp_path / "model"))
        other = vgg11(
            num_classes=7, image_size=8, width_multiplier=0.125,
            rng=np.random.default_rng(0),
        )
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(other, path)


class TestSNNCheckpoint:
    def test_roundtrip_with_betas(self, model_and_loader, tmp_path, rng):
        model, loader = model_and_loader
        snn = convert_dnn_to_snn(
            model, loader, ConversionConfig(timesteps=2)
        ).snn
        path = save_checkpoint(snn, str(tmp_path / "snn"))

        fresh = convert_dnn_to_snn(
            model, loader,
            ConversionConfig(timesteps=2, strategy="threshold_relu"),
        ).snn
        load_checkpoint(fresh, path)
        for a, b in zip(snn.spiking_neurons(), fresh.spiking_neurons()):
            assert a.beta == pytest.approx(b.beta)
            assert a.threshold == pytest.approx(b.threshold)
        images = rng.random((2, 3, 8, 8))
        snn.eval(), fresh.eval()
        with no_grad():
            np.testing.assert_allclose(snn(images).data, fresh(images).data)

    def test_timestep_mismatch_strict(self, model_and_loader, tmp_path):
        model, loader = model_and_loader
        snn2 = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
        path = save_checkpoint(snn2, str(tmp_path / "snn2"))
        snn3 = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=3)).snn
        with pytest.raises(ValueError, match="T="):
            load_checkpoint(snn3, path)
        load_checkpoint(snn3, path, strict=False)  # override allowed


class TestCLI:
    def test_help_runs(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--help"])

    def test_rejects_unknown_experiment(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table9"])
