"""Tests of the Li-et-al.-style sequential SNN calibration."""

import numpy as np
import pytest

from repro.conversion import (
    ConversionConfig,
    calibrate_snn,
    convert_dnn_to_snn,
)
from repro.data import DataLoader
from repro.models import vgg11
from repro.tensor import no_grad
from repro.train import evaluate_snn


@pytest.fixture(scope="module")
def setup(tiny_context):
    """Trained tiny VGG-11 plus a fresh conversion to calibrate."""
    return tiny_context


class TestCalibrateSNN:
    def test_returns_gain_per_layer(self, setup):
        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=4, strategy="threshold_relu"),
        )
        gains = calibrate_snn(
            conversion.snn, setup.model, setup.calibration_loader(), max_batches=1
        )
        assert len(gains) == len(conversion.snn.spiking_neurons())
        assert all(np.isfinite(g) and g > 0 for g in gains)

    def test_gains_clamped(self, setup):
        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=2, strategy="max_activation"),
        )
        gains = calibrate_snn(
            conversion.snn, setup.model, setup.calibration_loader(),
            max_batches=1, gain_range=(0.5, 2.0),
        )
        assert all(0.5 <= g <= 2.0 for g in gains)

    def test_betas_updated_in_place(self, setup):
        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=4, strategy="threshold_relu"),
        )
        before = [n.beta for n in conversion.snn.spiking_neurons()]
        gains = calibrate_snn(
            conversion.snn, setup.model, setup.calibration_loader(), max_batches=1
        )
        after = [n.beta for n in conversion.snn.spiking_neurons()]
        for b, g, a in zip(before, gains, after):
            assert a == pytest.approx(b * g)

    def test_calibration_does_not_collapse_accuracy(self, setup):
        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=4, strategy="threshold_relu"),
        )
        test_loader = setup.test_loader()
        before = evaluate_snn(conversion.snn, test_loader)
        calibrate_snn(
            conversion.snn, setup.model, setup.calibration_loader(), max_batches=2
        )
        after = evaluate_snn(conversion.snn, test_loader)
        assert after >= before - 0.1

    def test_calibration_helps_unscaled_conversion_on_average(self, setup):
        """Across T in {3, 4, 5}, calibrating the unscaled conversion
        should improve (or at worst preserve) mean accuracy — the [16]
        claim that layer-wise correction fixes compounding error."""
        test_loader = setup.test_loader()
        deltas = []
        for timesteps in (3, 4, 5):
            conversion = convert_dnn_to_snn(
                setup.model, setup.calibration_loader(),
                ConversionConfig(timesteps=timesteps, strategy="threshold_relu"),
            )
            before = evaluate_snn(conversion.snn, test_loader)
            calibrate_snn(
                conversion.snn, setup.model, setup.calibration_loader(),
                max_batches=2,
            )
            after = evaluate_snn(conversion.snn, test_loader)
            deltas.append(after - before)
        assert np.mean(deltas) >= -0.02

    def test_silent_layer_gets_unit_gain(self, setup):
        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=2, strategy="threshold_relu"),
        )
        # Silence one layer by raising its threshold out of reach.
        neurons = conversion.snn.spiking_neurons()
        neurons[2].v_threshold.data[0] = 1e9
        gains = calibrate_snn(
            conversion.snn, setup.model, setup.calibration_loader(), max_batches=1
        )
        assert gains[2] == 1.0

    def test_no_batches_rejected(self, setup):
        conversion = convert_dnn_to_snn(
            setup.model, setup.calibration_loader(),
            ConversionConfig(timesteps=2),
        )
        with pytest.raises(ValueError):
            calibrate_snn(conversion.snn, setup.model, [], max_batches=1)


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
