"""Tests of the SGL spike-rate regularizer and noisy SNN training."""

import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.tensor import no_grad


@pytest.fixture(scope="module")
def setup(tiny_context):
    """The session's trained tiny VGG-11 context."""
    return tiny_context


class TestSpikeRegularizer:
    def test_penalty_reduces_spiking(self, setup):
        """SGL with a spike penalty must cut spike counts vs without."""
        from repro.energy import measure_spiking_activity
        from repro.train import SNNTrainConfig, SNNTrainer

        results = {}
        for penalty in (0.0, 0.5):
            conversion = convert_dnn_to_snn(
                setup.model, setup.calibration_loader(),
                ConversionConfig(timesteps=2),
            )
            trainer = SNNTrainer(
                SNNTrainConfig(epochs=2, lr=1e-3, spike_penalty=penalty)
            )
            trainer.fit(conversion.snn, setup.train_loader(seed=5))
            report = measure_spiking_activity(
                conversion.snn, setup.test_loader(), max_batches=1
            )
            results[penalty] = report.average_spikes_per_neuron
        assert results[0.5] <= results[0.0] + 1e-9

    def test_regularizer_detached_after_fit(self, setup):
        from repro.train import SNNTrainConfig, SNNTrainer
        from repro.train.regularizers import SpikeRateRegularizer

        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=2),
        )
        trainer = SNNTrainer(SNNTrainConfig(epochs=1, lr=1e-3, spike_penalty=0.1))
        trainer.fit(conversion.snn, setup.train_loader(seed=5))
        # A fresh regularizer must attach cleanly (previous one detached).
        reg = SpikeRateRegularizer(0.1).attach(conversion.snn)
        reg.detach()

    def test_eval_forward_collects_nothing(self, setup):
        # SNNTrainer.fit keeps the regularizer attached while it
        # evaluates; no-grad eval passes must not retain spike tensors.
        from repro.train.regularizers import SpikeRateRegularizer

        snn = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=2),
        ).snn
        images, _labels = next(iter(setup.test_loader()))
        reg = SpikeRateRegularizer(0.1).attach(snn)
        try:
            snn.eval()
            with no_grad():
                snn(images)
            assert reg.penalty() is None
            snn.train()
            snn(images)
            assert reg.penalty() is not None
        finally:
            reg.detach()

    def test_noisy_training_runs(self, setup):
        from repro.train import SNNTrainConfig, SNNTrainer

        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=2),
        )
        trainer = SNNTrainer(
            SNNTrainConfig(epochs=1, lr=1e-3, input_noise_std=0.1)
        )
        history = trainer.fit(conversion.snn, setup.train_loader(seed=6))
        assert len(history.epochs) == 1

    def test_config_validation(self):
        from repro.train import SNNTrainConfig

        with pytest.raises(ValueError):
            SNNTrainConfig(spike_penalty=-1.0)
        with pytest.raises(ValueError):
            SNNTrainConfig(input_noise_std=-0.1)

    def test_regularizer_weight_validation(self):
        from repro.train.regularizers import SpikeRateRegularizer

        with pytest.raises(ValueError):
            SpikeRateRegularizer(-1.0)

    def test_double_attach_rejected(self, setup):
        from repro.train.regularizers import SpikeRateRegularizer

        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=2),
        )
        reg = SpikeRateRegularizer(0.1).attach(conversion.snn)
        with pytest.raises(RuntimeError):
            reg.attach(conversion.snn)
        reg.detach()
