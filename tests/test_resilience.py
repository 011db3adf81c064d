"""Training/inference hardening: guard, checkpoints, resume, loaders."""

import json
import os

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import vgg11
from repro.tensor import no_grad
from repro.train import (
    DNNTrainConfig,
    DNNTrainer,
    NonFiniteError,
    NonFiniteGuard,
    SNNTrainConfig,
    SNNTrainer,
)
from repro.utils import CheckpointError, load_checkpoint, save_checkpoint

from .snn_oracle import ENGINES, engine_of


def _micro_model(seed=0, num_classes=5):
    return vgg11(
        num_classes=num_classes, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(seed),
    )


class _PoisonLoader:
    """Two batches per epoch; poisons one batch on selected passes."""

    def __init__(self, poison_epochs=(1,), n=20, num_classes=5, seed=0):
        rng = np.random.default_rng(seed)
        self.xs = rng.normal(size=(n, 3, 8, 8))
        self.ys = rng.integers(0, num_classes, n)
        self.poison_epochs = set(poison_epochs)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        half = len(self.xs) // 2
        for start in (0, half):
            batch = self.xs[start:start + half].copy()
            if self.passes in self.poison_epochs and start == half:
                batch[0, 0, 0, 0] = np.nan
            yield batch, self.ys[start:start + half]


class TestNonFiniteGuard:
    def test_validation(self):
        with pytest.raises(ValueError):
            NonFiniteGuard(max_retries=0)
        with pytest.raises(ValueError):
            NonFiniteGuard(lr_backoff=1.0)

    def test_scan_attributes_first_offending_layer(self):
        model = _micro_model()
        guard = NonFiniteGuard()
        for param in model.parameters():
            param.grad = np.zeros_like(param.data)
        names = [name for name, _ in model.named_parameters()]
        offender = names[2]
        dict(model.named_parameters())[offender].grad[...] = np.inf

        class FakeLoss:
            def item(self):
                return 1.0

        site = guard.scan(model, FakeLoss())
        assert offender in site

    @pytest.mark.smoke
    def test_recovers_from_transient_nan(self):
        model = _micro_model()
        guard = NonFiniteGuard(max_retries=2, lr_backoff=0.5)
        trainer = DNNTrainer(DNNTrainConfig(epochs=2, lr=0.01))
        history = trainer.fit(model, _PoisonLoader(poison_epochs=(1,)), guard=guard)
        assert guard.retries_used == 1
        assert guard.last_site is not None
        assert all(np.isfinite(history.train_loss))
        assert history.learning_rate[0] == pytest.approx(0.005)

    def test_gives_up_with_actionable_error(self):
        model = _micro_model()
        guard = NonFiniteGuard(max_retries=2)
        trainer = DNNTrainer(DNNTrainConfig(epochs=2, lr=0.01))
        always_poisoned = _PoisonLoader(poison_epochs=range(1, 100))
        with pytest.raises(NonFiniteError, match="gave up after 2"):
            trainer.fit(model, always_poisoned, guard=guard)

    def test_snn_trainer_guard_recovers(self, rng):
        model = _micro_model()
        loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
        guard = NonFiniteGuard(max_retries=2)
        trainer = SNNTrainer(SNNTrainConfig(epochs=2, lr=1e-3))
        history = trainer.fit(
            snn, _PoisonLoader(poison_epochs=(1,)), guard=guard
        )
        assert guard.retries_used == 1
        assert all(np.isfinite(history.train_loss))

    def test_unguarded_loop_unaffected(self):
        model = _micro_model()
        trainer = DNNTrainer(DNNTrainConfig(epochs=1, lr=0.01))
        history = trainer.fit(model, _PoisonLoader(poison_epochs=()))
        assert len(history.train_loss) == 1


class TestCheckpointRobustness:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        model = _micro_model()
        save_checkpoint(model, str(tmp_path / "model"))
        save_checkpoint(model, str(tmp_path / "model"))  # overwrite in place
        leftovers = [n for n in os.listdir(tmp_path) if "tmp" in n]
        assert leftovers == []
        assert (tmp_path / "model.npz").exists()

    def test_missing_file_raises_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="no checkpoint at"):
            load_checkpoint(_micro_model(), "/nonexistent/model.npz")

    def test_corrupt_archive_raises_checkpoint_error(self, tmp_path):
        model = _micro_model()
        path = save_checkpoint(model, str(tmp_path / "model"))
        with open(path, "wb") as handle:
            handle.write(b"not a zip archive")
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(model, path)

    def test_truncated_archive_raises_checkpoint_error(self, tmp_path):
        model = _micro_model()
        path = save_checkpoint(model, str(tmp_path / "model"))
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(model, path)

    def test_missing_snn_metadata_raises_checkpoint_error(self, tmp_path, rng):
        model = _micro_model()
        loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
        path = save_checkpoint(snn, str(tmp_path / "snn"))
        # strip the reserved __meta__ keys, keeping the parameters
        with np.load(path) as archive:
            stripped = {
                key: archive[key] for key in archive.files
                if not key.startswith("__meta__")
            }
        np.savez(path, **stripped)
        with pytest.raises(CheckpointError, match="betas"):
            load_checkpoint(snn, path)
        load_checkpoint(snn, path, strict=False)  # raw parameters only

    def test_snn_roundtrip_equivalent_in_both_modes(self, tmp_path, rng):
        model = _micro_model()
        loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
        # perturb the converted parameters so the loaded values are
        # distinguishable from a fresh conversion
        for neuron in snn.spiking_neurons():
            neuron.v_threshold.data *= 1.1
            neuron.leak.data *= 0.9
        path = save_checkpoint(snn, str(tmp_path / "snn"))

        fresh = convert_dnn_to_snn(
            model, loader, ConversionConfig(timesteps=2)
        ).snn
        load_checkpoint(fresh, path)
        for a, b in zip(snn.spiking_neurons(), fresh.spiking_neurons()):
            assert a.beta == pytest.approx(b.beta)
            assert a.threshold == pytest.approx(b.threshold)
            assert a.leak_value == pytest.approx(b.leak_value)
        images = rng.random((2, 3, 8, 8))
        snn.eval(), fresh.eval()
        for mode in ENGINES:
            with engine_of(snn, mode), engine_of(fresh, mode), no_grad():
                np.testing.assert_allclose(
                    snn(images).data, fresh(images).data
                )


class TestPipelineResume:
    def test_resume_after_kill(self, tiny_config, tmp_path, monkeypatch):
        from repro.experiments.pipeline import (
            clear_pipeline_cache,
            run_pipeline,
        )

        ckdir = str(tmp_path / "ck")
        clear_pipeline_cache()
        original_fit = SNNTrainer.fit

        def killing_fit(self, snn, train, test=None, **kwargs):
            inner = kwargs.get("on_epoch_end")

            def bomb(epoch, history):
                if inner is not None:
                    inner(epoch, history)
                if epoch == 1:
                    raise KeyboardInterrupt

            kwargs["on_epoch_end"] = bomb
            return original_fit(self, snn, train, test, **kwargs)

        monkeypatch.setattr(SNNTrainer, "fit", killing_fit)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(tiny_config, checkpoint_dir=ckdir)
        monkeypatch.setattr(SNNTrainer, "fit", original_fit)
        clear_pipeline_cache()

        state = json.load(open(os.path.join(ckdir, "pipeline_state.json")))
        assert state["completed_epochs"] == 1
        assert state["total_epochs"] == tiny_config.scale.snn_epochs

        result = run_pipeline(tiny_config, checkpoint_dir=ckdir, resume=True)
        assert result.snn_history.epochs[0] == 2  # picked up, not restarted
        state = json.load(open(os.path.join(ckdir, "pipeline_state.json")))
        assert state["completed_epochs"] == state["total_epochs"]

        # resuming a finished run loads the final weights, trains nothing
        clear_pipeline_cache()
        done = run_pipeline(tiny_config, checkpoint_dir=ckdir, resume=True)
        assert done.snn_history is None
        assert done.snn_accuracy == result.snn_accuracy
        clear_pipeline_cache()

    def test_resume_refuses_mismatched_fingerprint(
        self, tiny_config, tmp_path
    ):
        from repro.experiments.pipeline import (
            _pipeline_fingerprint,
            _write_pipeline_state,
            run_pipeline,
        )

        ckdir = str(tmp_path / "ck")
        _write_pipeline_state(ckdir, {
            "fingerprint": _pipeline_fingerprint(
                tiny_config, "proposed", True, 123.0
            ),
            "completed_epochs": 1,
            "total_epochs": 2,
            "conversion_accuracy": 0.5,
        })
        with pytest.raises(CheckpointError, match="different pipeline"):
            run_pipeline(tiny_config, checkpoint_dir=ckdir, resume=True)

    def test_resume_requires_checkpoint_dir(self, tiny_config):
        from repro.experiments.pipeline import run_pipeline

        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            run_pipeline(tiny_config, resume=True)


class TestDataLoaderValidation:
    def test_rejects_nonpositive_batch_size(self, rng):
        with pytest.raises(ValueError, match="batch_size"):
            DataLoader(rng.random((4, 3, 8, 8)), np.zeros(4, dtype=int), 0)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            DataLoader(
                np.empty((0, 3, 8, 8)), np.empty((0,), dtype=int), 4
            )

    def test_rejects_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="lengths differ"):
            DataLoader(rng.random((4, 3, 8, 8)), np.zeros(3, dtype=int), 2)
