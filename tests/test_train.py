"""Training-loop tests: DNN trainer, SNN (SGL) trainer, metrics, LSUV."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.models import resnet20, vgg11, vgg16
from repro.nn import Conv2d, Linear, Module, Sequential, ThresholdReLU, tap
from repro.snn import SpikingNetwork
from repro.train import (
    DNNTrainConfig,
    DNNTrainer,
    SNNTrainConfig,
    SNNTrainer,
    TrainingHistory,
    accuracy,
    clamp_neuron_parameters,
    clamp_thresholds,
    evaluate_dnn,
    evaluate_snn,
    top_k_accuracy,
)
from repro.tensor import Tensor, no_grad
from repro.tensor.tensor import add_op_observer, remove_op_observer
from repro.train.lsuv import lsuv_init


def separable_blobs(n=60, seed=0):
    """Two linearly separable Gaussian blobs as (N, 1, 2, 2) 'images'."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    centers = np.where(labels[:, None] == 0, -1.5, 1.5)
    images = rng.normal(size=(n, 4)) * 0.3 + centers
    return images.reshape(n, 1, 2, 2), labels


def blob_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        # Flatten + small MLP with a threshold activation
        __import__("repro.nn", fromlist=["Flatten"]).Flatten(),
        Linear(4, 8, bias=False, rng=rng),
        ThresholdReLU(init_threshold=2.0),
        Linear(8, 2, bias=False, rng=rng),
    )


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 3)), np.zeros(3))

    def test_top_k(self):
        logits = np.array([[0.1, 0.5, 0.4], [0.9, 0.08, 0.02]])
        labels = np.array([2, 2])
        # row 0: top-2 = {1, 2} hit; row 1: top-2 = {0, 1} miss.
        assert top_k_accuracy(logits, labels, k=2) == pytest.approx(0.5)
        assert top_k_accuracy(logits, labels, k=3) == 1.0

    def test_evaluate_dnn_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dnn(blob_model(), [])


class TestDNNTrainer:
    def test_learns_separable_problem(self):
        images, labels = separable_blobs()
        loader = DataLoader(images, labels, batch_size=20, shuffle=True, seed=0)
        model = blob_model()
        trainer = DNNTrainer(DNNTrainConfig(epochs=15, lr=0.05))
        history = trainer.fit(model, loader, loader)
        assert history.final_test_accuracy > 0.9

    def test_history_structure(self):
        images, labels = separable_blobs(20)
        loader = DataLoader(images, labels, batch_size=20)
        history = DNNTrainer(DNNTrainConfig(epochs=3, lr=0.01)).fit(
            blob_model(), loader, loader
        )
        assert history.epochs == [1, 2, 3]
        assert len(history.train_loss) == 3
        assert len(history.epoch_seconds) == 3
        assert history.best_test_accuracy >= history.test_accuracy[0] or True

    def test_lr_schedule_decays(self):
        images, labels = separable_blobs(20)
        loader = DataLoader(images, labels, batch_size=20)
        history = DNNTrainer(DNNTrainConfig(epochs=10, lr=1.0)).fit(
            blob_model(), loader, loader
        )
        assert history.learning_rate[-1] < history.learning_rate[0]

    def test_no_test_loader(self):
        images, labels = separable_blobs(20)
        loader = DataLoader(images, labels, batch_size=20)
        history = DNNTrainer(DNNTrainConfig(epochs=1, lr=0.01)).fit(
            blob_model(), loader
        )
        assert np.isnan(history.test_accuracy[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DNNTrainConfig(epochs=0)

    def test_clamp_thresholds(self):
        model = blob_model()
        layer = [m for m in model.modules() if isinstance(m, ThresholdReLU)][0]
        layer.mu.data[0] = -5.0
        clamp_thresholds(model)
        assert layer.threshold > 0


class TestSNNTrainer:
    @pytest.fixture(scope="class")
    def snn_setup(self):
        images, labels = separable_blobs(80)
        loader = DataLoader(images, labels, batch_size=20, shuffle=True, seed=0)
        model = blob_model()
        DNNTrainer(DNNTrainConfig(epochs=10, lr=0.05)).fit(model, loader)
        conversion = convert_dnn_to_snn(
            model, DataLoader(images, labels, batch_size=20),
            ConversionConfig(timesteps=2),
        )
        return conversion.snn, loader

    def test_fit_improves_or_holds_accuracy(self, snn_setup):
        snn, loader = snn_setup
        before = evaluate_snn(snn, loader)
        history = SNNTrainer(SNNTrainConfig(epochs=5, lr=1e-3)).fit(snn, loader, loader)
        assert history.final_test_accuracy >= before - 0.1

    def test_sgd_option(self, snn_setup):
        snn, loader = snn_setup
        trainer = SNNTrainer(SNNTrainConfig(epochs=1, lr=1e-3, optimizer="sgd"))
        history = trainer.fit(snn, loader, loader)
        assert len(history.epochs) == 1

    def test_threshold_freezing(self, snn_setup):
        snn, loader = snn_setup
        thresholds_before = [n.threshold for n in snn.spiking_neurons()]
        trainer = SNNTrainer(
            SNNTrainConfig(epochs=1, lr=1e-2, train_thresholds=False, train_leaks=False)
        )
        trainer.fit(snn, loader)
        thresholds_after = [n.threshold for n in snn.spiking_neurons()]
        np.testing.assert_allclose(thresholds_before, thresholds_after)

    def test_clamp_neuron_parameters(self, snn_setup):
        snn, _ = snn_setup
        neuron = snn.spiking_neurons()[0]
        neuron.v_threshold.data[0] = -1.0
        neuron.leak.data[0] = 2.0
        clamp_neuron_parameters(snn)
        assert neuron.threshold > 0
        assert neuron.leak_value <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SNNTrainConfig(epochs=0)
        with pytest.raises(ValueError):
            SNNTrainConfig(optimizer="rmsprop")


class TestHistory:
    def test_empty_history_raises(self):
        history = TrainingHistory()
        with pytest.raises(ValueError):
            _ = history.best_test_accuracy
        with pytest.raises(ValueError):
            _ = history.mean_epoch_seconds

    def test_record_and_aggregates(self):
        history = TrainingHistory()
        history.record(1, 0.5, 0.6, 0.7, 0.01, 2.0)
        history.record(2, 0.4, 0.7, 0.8, 0.01, 4.0)
        assert history.best_test_accuracy == 0.8
        assert history.final_test_accuracy == 0.8
        assert history.mean_epoch_seconds == 3.0


def reference_lsuv(
    model, images, target_std=1.0, tolerance=0.05, max_iterations=4, min_std=1e-8
):
    """The layer-by-layer loop ``lsuv_init`` replaced: up to
    ``max_iterations + 1`` whole-model forwards per weight layer."""
    weight_layers = [m for m in model.modules() if isinstance(m, (Conv2d, Linear))]
    batch = Tensor(np.asarray(images))
    was_training = model.training
    model.eval()
    captured = {}

    def capture(layer, _x, out):
        captured[id(layer)] = float(out.data.std())

    final_stds = []
    try:
        with no_grad(), tap(weight_layers, capture):
            for layer in weight_layers:
                for _ in range(max_iterations):
                    captured.clear()
                    model(batch)
                    std = captured[id(layer)]
                    if std < min_std:
                        break
                    if abs(std - target_std) <= tolerance * target_std:
                        break
                    layer.weight.data /= std / target_std
                captured.clear()
                model(batch)
                final_stds.append(captured[id(layer)])
    finally:
        model.train(was_training)
    return final_stds


def small_model(arch, seed=0):
    if arch == "resnet20":
        return resnet20(
            num_classes=5, width_multiplier=0.25, rng=np.random.default_rng(seed)
        )
    build = {"vgg11": vgg11, "vgg16": vgg16}[arch]
    return build(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(seed),
    )


def weight_layers_of(model):
    return [m for m in model.modules() if isinstance(m, (Conv2d, Linear))]


def assert_same_init(model_a, stds_a, model_b, stds_b):
    assert stds_a == stds_b
    state_b = model_b.state_dict()
    for name, values in model_a.state_dict().items():
        assert np.array_equal(values, state_b[name]), name


class _Unreached(Module):
    def __init__(self):
        super().__init__()
        self.used = Linear(4, 3, bias=False, rng=np.random.default_rng(0))
        self.unused = Linear(3, 2, bias=False, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.used(x)


class _Boom(Module):
    def forward(self, x):
        raise RuntimeError("boom")


class TestLSUV:
    def test_unit_output_std(self, rng):
        model = vgg11(
            num_classes=5, image_size=8, width_multiplier=0.125,
            rng=np.random.default_rng(0),
        )
        stds = lsuv_init(model, rng.normal(size=(16, 3, 8, 8)))
        # All but perhaps the last couple of layers should be near 1.
        assert np.all(np.abs(np.asarray(stds) - 1.0) < 0.2)

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_leaves_no_taps_and_restores_mode(self, rng, raises, training):
        model = small_model("vgg11")
        if raises:  # fail midway, after some layers were rescaled
            model.features.append(_Boom())
        model.train(training)
        images = rng.normal(size=(4, 3, 8, 8))
        if raises:
            with pytest.raises(RuntimeError, match="boom"):
                lsuv_init(model, images)
        else:
            lsuv_init(model, images)
            assert model(Tensor(images)).shape == (4, 5)
        assert all("_taps" not in vars(m) for m in model.modules())
        assert model.training is training
        assert all(m.training is training for m in model.modules())

    def test_rejects_no_weight_layers(self, rng):
        from repro.nn import Sequential, ReLU

        with pytest.raises(ValueError):
            lsuv_init(Sequential(ReLU()), rng.normal(size=(2, 3, 4, 4)))

    def test_unreached_layer_is_named(self, rng):
        with pytest.raises(ValueError, match="unused"):
            lsuv_init(_Unreached(), rng.normal(size=(8, 4)))

    @pytest.mark.parametrize("arch", ["vgg11", "vgg16", "resnet20"])
    def test_matches_reference_bitwise(self, rng, arch):
        images = rng.normal(size=(16, 3, 8, 8))
        model, reference = small_model(arch), small_model(arch)
        stds = lsuv_init(model, images)
        assert_same_init(model, stds, reference, reference_lsuv(reference, images))

    @given(
        target_std=st.floats(0.1, 4.0),
        tolerance=st.floats(0.0, 0.5),
        max_iterations=st.integers(0, 5),
        dead_layer=st.one_of(st.none(), st.integers(0, 9)),
    )
    # Dead-layer branch (a zeroed layer and all below it stay at std 0)
    # and the non-converging branch (no tolerance, rounds run out).
    @example(target_std=1.0, tolerance=0.05, max_iterations=4, dead_layer=3)
    @example(target_std=2.5, tolerance=0.0, max_iterations=2, dead_layer=None)
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_over_options(
        self, target_std, tolerance, max_iterations, dead_layer
    ):
        images = np.random.default_rng(7).normal(size=(8, 3, 8, 8))
        model, reference = small_model("vgg11"), small_model("vgg11")
        if dead_layer is not None:
            for m in (model, reference):
                weight_layers_of(m)[dead_layer].weight.data[...] = 0.0
        options = dict(
            target_std=target_std, tolerance=tolerance, max_iterations=max_iterations
        )
        stds = lsuv_init(model, images, **options)
        expected = reference_lsuv(reference, images, **options)
        assert_same_init(model, stds, reference, expected)
        if dead_layer is not None:
            assert stds[dead_layer:] == [0.0] * (len(stds) - dead_layer)

    @pytest.mark.parametrize("max_iterations", [0, 2, 4])
    def test_one_model_forward_and_bounded_layer_reruns(self, rng, max_iterations):
        # Each weight layer makes exactly one conv2d/matmul op per run, so
        # the weight ops between the observer's tap on layer k and on
        # layer k+1 are layer k's reruns plus layer k+1's first run.
        model = small_model("vgg11")
        layers = weight_layers_of(model)
        events = []

        def on_op(_out, name):
            if name in ("conv2d", "matmul"):
                events.append("op")

        with tap(model, lambda *_: events.append("model")), \
                tap(layers, lambda layer, *_: events.append(layers.index(layer))):
            add_op_observer(on_op)
            try:
                lsuv_init(model, rng.normal(size=(8, 3, 8, 8)), tolerance=0.0,
                          max_iterations=max_iterations)
            finally:
                remove_op_observer(on_op)
        assert events.count("model") == 1
        marks = [i for i, e in enumerate(events) if isinstance(e, int)]
        assert [events[i] for i in marks] == list(range(len(layers)))
        runs = [
            events[start:end].count("op")
            for start, end in zip(marks, marks[1:] + [len(events)])
        ]
        runs[-1] += 1  # the last layer has no next layer's first run
        assert all(1 <= r <= max_iterations + 1 for r in runs)
        assert (max(runs) > 1) == (max_iterations > 0)  # reruns are counted
