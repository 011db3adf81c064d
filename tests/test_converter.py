"""Conversion pipeline tests: stats collection, specs, twin building."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conversion import (
    ConversionConfig,
    LayerActivationStats,
    NeuronSpec,
    activation_layers,
    build_specs,
    collect_activation_stats,
    convert_dnn_to_snn,
    deng_shift_specs,
    find_scaling_factors,
    grid_scaling_specs,
    max_activation_specs,
    proposed_specs,
    threshold_relu_specs,
)
from repro.conversion.converter import absorb_beta
from repro.data import DataLoader
from repro.models import resnet20, vgg11
from repro.nn import (
    ActivationRecorder,
    Conv2d,
    Linear,
    ReLU,
    Sequential,
    ThresholdReLU,
    tap,
)
from repro.snn import (
    SpikingMaxPool,
    SpikingNetwork,
    SpikingNeuron,
    SpikingResidualBlock,
    StepWrapper,
    TemporalDropout,
)
from repro.tensor import Tensor, no_grad
from repro.train import evaluate_snn

from .test_algorithm1 import as_tuple, exhaustive_search, reference_search


@pytest.fixture(scope="module")
def small_vgg():
    return vgg11(
        num_classes=5,
        image_size=8,
        width_multiplier=0.125,
        dropout=0.1,
        rng=np.random.default_rng(0),
    )


@pytest.fixture(scope="module")
def small_resnet():
    return resnet20(
        num_classes=5, width_multiplier=0.125, rng=np.random.default_rng(0)
    )


@pytest.fixture(scope="module")
def batches():
    rng = np.random.default_rng(1)
    images = rng.random((24, 3, 8, 8))
    labels = rng.integers(0, 5, size=24)
    return DataLoader(images, labels, batch_size=8)


class TestActivationStats:
    def test_one_stat_per_activation(self, small_vgg, batches):
        stats = collect_activation_stats(small_vgg, batches)
        assert len(stats) == len(activation_layers(small_vgg))

    def test_percentile_grid(self, small_vgg, batches):
        stats = collect_activation_stats(small_vgg, batches)
        for s in stats:
            assert s.percentiles.shape == (101,)
            assert np.all(np.diff(s.percentiles) >= 0)  # monotone
            assert s.count > 0

    def test_mu_matches_layer_threshold(self, small_vgg, batches):
        stats = collect_activation_stats(small_vgg, batches)
        for s, layer in zip(stats, activation_layers(small_vgg)):
            assert s.mu == layer.threshold

    def test_d_max_is_max(self, small_vgg, batches):
        stats = collect_activation_stats(small_vgg, batches)
        for s in stats:
            assert s.d_max >= s.percentiles[-1] - 1e-12

    def test_interpolated_percentile(self, small_vgg, batches):
        stats = collect_activation_stats(small_vgg, batches)
        s = stats[0]
        assert s.percentiles[50] == pytest.approx(s.percentile(50.0))
        with pytest.raises(ValueError):
            s.percentile(101.0)

    def test_relu_model_uses_dmax_as_mu(self, batches):
        model = vgg11(
            num_classes=5, image_size=8, width_multiplier=0.125,
            activation="relu", rng=np.random.default_rng(0),
        )
        stats = collect_activation_stats(model, batches)
        for s in stats:
            assert s.mu == s.d_max

    def test_restores_model_state(self, small_vgg, batches):
        collect_activation_stats(small_vgg, batches)
        for layer in activation_layers(small_vgg):
            assert getattr(layer, "recorder", None) is None

    def test_max_batches_limits_samples(self, small_vgg, batches):
        all_stats = collect_activation_stats(small_vgg, batches)
        limited = collect_activation_stats(small_vgg, batches, max_batches=1)
        assert limited[0].count < all_stats[0].count

    def test_no_activations_rejected(self, batches):
        from repro.nn import Sequential

        with pytest.raises(ValueError):
            collect_activation_stats(
                Sequential(Linear(4, 2, rng=np.random.default_rng(0))), batches
            )


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _reference_stats(model, batches, max_samples=200_000):
    """Calibration with plain ``np.percentile`` of the recording-order
    samples: the oracle for collect_activation_stats' sorted path."""
    layers = activation_layers(model)
    recorders = {id(layer): ActivationRecorder(max_samples=max_samples) for layer in layers}
    was_training = model.training
    model.eval()
    try:
        with tap(layers, lambda layer, x, _out: recorders[id(layer)].record(x.data)), no_grad():
            for images, _labels in batches:
                model(Tensor(np.asarray(images)))
    finally:
        model.train(was_training)
    stats = []
    for layer in layers:
        values = recorders[id(layer)].values()
        d_max = float(values.max())
        stats.append(LayerActivationStats(
            percentiles=np.percentile(values, np.arange(101.0)),
            mu=layer.threshold if isinstance(layer, ThresholdReLU) else d_max,
            d_max=d_max,
            mean=float(values.mean()),
            count=values.size,
        ))
    return stats


_SAMPLE = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -3.0]),  # ties and signed zeros
)


class TestPercentileExactness:
    """Percentiles read from the sorted samples must equal ``np.percentile``
    of the recording-order samples, and mean and max keep every bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(_SAMPLE, min_size=1, max_size=300).map(np.array),
        batches=st.integers(1, 4),
        max_samples=st.sampled_from([5, 64, 200_000]),
    )
    @example(samples=np.array([0.7]), batches=1, max_samples=200_000)
    @example(samples=np.full(40, 0.25), batches=3, max_samples=200_000)
    @example(samples=-np.linspace(0.1, 5.0, 50), batches=2, max_samples=200_000)
    @example(samples=np.array([0.0, -0.0] * 30), batches=2, max_samples=200_000)
    @example(samples=np.array([-0.0, 0.0, -1.0] * 20), batches=4, max_samples=200_000)
    @example(samples=np.arange(100.0) % 7 - 3.0, batches=2, max_samples=37)
    @example(samples=np.arange(4321.0) * 0.37 % 11 - 4.0, batches=3, max_samples=5000)
    def test_matches_recording_order_percentile(self, samples, batches, max_samples):
        chunks = [c[None, :] for c in np.array_split(samples, batches) if c.size]
        loader = [(chunk, None) for chunk in chunks]
        recorder = ActivationRecorder(max_samples=max_samples)
        for chunk in chunks:
            recorder.record(chunk)
        values = recorder.values()

        (stat,) = collect_activation_stats(
            Sequential(ReLU()), loader, max_samples_per_layer=max_samples
        )
        assert np.array_equal(stat.percentiles, np.percentile(values, np.arange(101.0)))
        assert _bits(stat.d_max) == _bits(values.max())
        assert _bits(stat.mean) == _bits(values.mean())
        assert stat.count == values.size

    @pytest.mark.parametrize("net", ["small_vgg", "small_resnet"])
    def test_fig2_specs_match_reference_calibration(self, net, batches, request):
        model = request.getfixturevalue(net)
        stats = collect_activation_stats(model, batches)
        reference = _reference_stats(model, batches)
        for got, want in zip(stats, reference):
            assert np.array_equal(got.percentiles, want.percentiles)
            assert _bits(got.d_max) == _bits(want.d_max)
            assert _bits(got.mean) == _bits(want.mean)
        for strategy in ("proposed", "threshold_relu", "deng_shift"):
            for timesteps in (2, 3):
                assert build_specs(strategy, stats, timesteps) == build_specs(
                    strategy, reference, timesteps
                )

    @pytest.mark.parametrize(
        "net, scalar_timesteps", [("small_vgg", 2), ("small_resnet", 3)],
        ids=["small_vgg", "small_resnet"],
    )
    def test_proposed_specs_match_the_pseudocode_search(
        self, net, scalar_timesteps, batches, request
    ):
        # Real layer statistics: every row the search skips must be one
        # the pseudocode loop would not pick either.  The scalar loop
        # (~1 s per T on these nets) pins one T per net; the others scan
        # every alpha row with no filter.
        stats = collect_activation_stats(request.getfixturevalue(net), batches)
        for timesteps in (1, 2, 3, 5):
            search = reference_search if timesteps == scalar_timesteps else exhaustive_search
            reference = [search(s.percentiles, s.mu, timesteps) for s in stats]
            for layer, want in zip(stats, reference):
                got = find_scaling_factors(layer.percentiles, layer.mu, timesteps)
                assert as_tuple(got) == as_tuple(want)
            assert proposed_specs(stats, timesteps) == [
                NeuronSpec(v_threshold=f.alpha * s.mu, beta=f.beta, alpha=f.alpha)
                for f, s in zip(reference, stats)
            ]


class TestSpecs:
    @pytest.fixture(scope="class")
    def stats(self, small_vgg, batches):
        return collect_activation_stats(small_vgg, batches)

    def test_proposed_specs(self, stats):
        specs = proposed_specs(stats, timesteps=2)
        assert len(specs) == len(stats)
        for spec, s in zip(specs, stats):
            assert 0 < spec.v_threshold <= s.mu
            assert spec.alpha <= 1.0

    def test_threshold_relu_specs(self, stats):
        specs = threshold_relu_specs(stats)
        for spec, s in zip(specs, stats):
            assert spec.v_threshold == s.mu
            assert spec.beta == 1.0

    def test_max_activation_specs(self, stats):
        specs = max_activation_specs(stats)
        for spec, s in zip(specs, stats):
            assert spec.v_threshold == pytest.approx(max(s.d_max, 1e-6))

    def test_max_activation_robust_percentile(self, stats):
        robust = max_activation_specs(stats, percentile=99.0)
        hard = max_activation_specs(stats)
        for r, h in zip(robust, hard):
            assert r.v_threshold <= h.v_threshold + 1e-12

    def test_deng_specs_initial_potential(self, stats):
        specs = deng_shift_specs(stats, timesteps=4)
        for spec, s in zip(specs, stats):
            assert spec.initial_potential == pytest.approx(spec.v_threshold / 2.0)

    def test_deng_specs_max_variant(self, stats):
        specs = deng_shift_specs(stats, timesteps=4, use_max_activation=True)
        for spec, s in zip(specs, stats):
            assert spec.v_threshold == pytest.approx(max(s.d_max, 1e-6))

    def test_grid_scaling_specs(self, stats):
        specs = grid_scaling_specs(stats, timesteps=2)
        for spec, s in zip(specs, stats):
            assert 0 < spec.v_threshold <= s.mu + 1e-12
            assert spec.beta == 1.0

    def test_build_specs_dispatch(self, stats):
        for name in ("proposed", "threshold_relu", "max_activation",
                      "deng_shift", "grid_scaling"):
            specs = build_specs(name, stats, 2)
            assert len(specs) == len(stats)
        with pytest.raises(KeyError):
            build_specs("mystery", stats, 2)

    def test_neuron_spec_validation(self):
        with pytest.raises(ValueError):
            NeuronSpec(v_threshold=0.0)
        with pytest.raises(ValueError):
            NeuronSpec(v_threshold=1.0, beta=0.0)


class TestConverterVGG:
    @pytest.fixture(scope="class")
    def conversion(self, small_vgg, batches):
        return convert_dnn_to_snn(
            small_vgg, batches, ConversionConfig(timesteps=2)
        )

    def test_returns_spiking_network(self, conversion):
        assert isinstance(conversion.snn, SpikingNetwork)
        assert conversion.snn.timesteps == 2

    def test_neuron_per_activation(self, conversion, small_vgg):
        neurons = conversion.snn.spiking_neurons()
        assert len(neurons) == len(activation_layers(small_vgg))

    def test_thresholds_match_specs(self, conversion):
        for neuron, spec in zip(conversion.snn.spiking_neurons(), conversion.specs):
            assert neuron.threshold == pytest.approx(spec.v_threshold)
            assert neuron.beta == pytest.approx(spec.beta)

    def test_weights_copied_not_shared(self, conversion, small_vgg):
        dnn_convs = [m for m in small_vgg.modules() if isinstance(m, Conv2d)]
        snn_convs = [
            m.inner for m in conversion.snn.modules()
            if isinstance(m, StepWrapper) and isinstance(m.inner, Conv2d)
        ]
        assert len(dnn_convs) == len(snn_convs)
        for d, s in zip(dnn_convs, snn_convs):
            np.testing.assert_allclose(d.weight.data, s.weight.data)
            assert d.weight is not s.weight

    def test_dropout_becomes_temporal(self, conversion):
        assert any(
            isinstance(m, TemporalDropout) for m in conversion.snn.modules()
        )

    def test_maxpool_becomes_gated(self, conversion):
        assert any(
            isinstance(m, SpikingMaxPool) for m in conversion.snn.modules()
        )

    def test_forward_shape(self, conversion, batches):
        images, _ = next(iter(batches))
        assert conversion.snn(images).shape == (images.shape[0], 5)

    def test_report_rows(self, conversion):
        rows = conversion.report_rows()
        assert len(rows) == len(conversion.specs)
        assert set(rows[0]) == {"layer", "mu", "d_max", "alpha", "beta", "v_threshold"}

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ConversionConfig(timesteps=0)
        # Rejected up front, not after a calibration forward.
        for bad in ({"strategy": "no_such_strategy"}, {"calibration_batches": 0},
                    {"max_samples_per_layer": 0}):
            with pytest.raises(ValueError):
                ConversionConfig(timesteps=2, **bad)


def _assert_same_stats(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.percentiles.tobytes() == b.percentiles.tobytes()
        assert (_bits(a.mu), _bits(a.d_max), _bits(a.mean), a.count) == (
            _bits(b.mu), _bits(b.d_max), _bits(b.mean), b.count
        )


class TestCalibrationReuse:
    """An unchanged model calibrated on identical images is run once;
    any change to what the stats depend on runs it again, and every
    result equals a fresh calibration bitwise."""

    @pytest.fixture
    def model(self):
        return vgg11(
            num_classes=5, image_size=8, width_multiplier=0.125,
            dropout=0.1, rng=np.random.default_rng(0),
        )

    @pytest.fixture
    def runs(self, model, monkeypatch):
        """Counts the model's forward calls (a class-level spy: a tap
        would itself turn reuse off)."""
        calls = []
        forward = type(model).forward

        def spy(self, x):
            calls.append(x.data.shape)
            return forward(self, x)

        monkeypatch.setattr(type(model), "forward", spy)
        return calls

    @staticmethod
    def loader(seed=1, dtype=np.float64):
        rng = np.random.default_rng(seed)
        images = rng.random((24, 3, 8, 8)).astype(dtype)
        return DataLoader(images, rng.integers(0, 5, size=24), batch_size=8)

    @staticmethod
    def fresh(model, loader, **kwargs):
        """Calibration of a copy of ``model``, which no call has seen."""
        return collect_activation_stats(copy.deepcopy(model), loader, **kwargs)

    def test_repeat_call_does_not_run_the_model(self, model, runs):
        first = collect_activation_stats(model, self.loader())
        assert len(runs) == 3
        again = collect_activation_stats(model, self.loader())
        assert len(runs) == 3
        _assert_same_stats(again, first)

    def test_max_batches_bounds_the_batches_keyed(self, model, runs):
        collect_activation_stats(model, self.loader(), max_batches=2)
        assert len(runs) == 2
        collect_activation_stats(model, self.loader(), max_batches=2)
        assert len(runs) == 2
        _assert_same_stats(
            collect_activation_stats(model, self.loader()),
            self.fresh(model, self.loader()),
        )
        assert len(runs) == 2 + 3 + 3  # a new key, then the fresh copy

    def test_weight_changed_in_place_recomputes(self, model, runs):
        collect_activation_stats(model, self.loader())
        conv = next(m for m in model.modules() if isinstance(m, Conv2d))
        conv.weight.data[0, 0, 0, 0] += 0.5
        _assert_same_stats(
            collect_activation_stats(model, self.loader()),
            self.fresh(model, self.loader()),
        )
        assert len(runs) == 3 * 3

    def test_threshold_changed_recomputes(self, model, runs):
        collect_activation_stats(model, self.loader())
        layer = activation_layers(model)[0]
        before = layer.extra_repr()
        layer.set_threshold(layer.threshold * (1 + 1e-9))
        assert layer.extra_repr() == before  # only the parameter bytes moved
        got = collect_activation_stats(model, self.loader())
        assert got[0].mu == layer.threshold
        _assert_same_stats(got, self.fresh(model, self.loader()))

    def test_other_images_recompute(self, model, runs):
        collect_activation_stats(model, self.loader(seed=1))
        _assert_same_stats(
            collect_activation_stats(model, self.loader(seed=2)),
            self.fresh(model, self.loader(seed=2)),
        )
        assert len(runs) == 3 * 3

    def test_other_sample_bound_recomputes(self, model, runs):
        collect_activation_stats(model, self.loader())
        got = collect_activation_stats(model, self.loader(), max_samples_per_layer=100)
        _assert_same_stats(got, self.fresh(model, self.loader(), max_samples_per_layer=100))
        assert got[0].count == 100

    def test_default_dtype_recomputes(self, model, runs):
        from repro.tensor import default_dtype

        # float32 images: both dtypes feed the same values, cast.
        clean = collect_activation_stats(model, self.loader(dtype=np.float32))
        with default_dtype(np.float32):
            got = collect_activation_stats(model, self.loader(dtype=np.float32))
            expected = self.fresh(model, self.loader(dtype=np.float32))
        assert len(runs) == 3 * 3
        _assert_same_stats(got, expected)
        assert got[0].percentiles.tobytes() != clean[0].percentiles.tobytes()

    def test_tapped_model_is_always_calibrated(self, model, runs):
        first = activation_layers(model)[0]
        clean = collect_activation_stats(model, self.loader())
        with tap(first, lambda _layer, _x, out: out * 2.0):
            doubled = collect_activation_stats(model, self.loader())
            again = collect_activation_stats(model, self.loader())
        assert len(runs) == 3 * 3
        _assert_same_stats(again, doubled)
        assert doubled[1].percentiles.tobytes() != clean[1].percentiles.tobytes()
        # Nothing was stored under the tap: the clean entry still serves.
        _assert_same_stats(collect_activation_stats(model, self.loader()), clean)
        assert len(runs) == 3 * 3

    def test_returned_stats_are_private(self, model, runs):
        expected = self.fresh(model, self.loader())
        first = collect_activation_stats(model, self.loader())
        first[0].percentiles[:] = -1.0
        second = collect_activation_stats(model, self.loader())
        _assert_same_stats(second, expected)
        second[0].percentiles[:] = -1.0
        _assert_same_stats(collect_activation_stats(model, self.loader()), expected)
        assert len(runs) == 3 + 3  # the fresh copy, then one calibration

    def test_entry_dies_with_the_model(self):
        import gc
        import weakref

        from repro.conversion import activation_stats

        model = vgg11(num_classes=5, image_size=8, width_multiplier=0.125,
                      rng=np.random.default_rng(0))
        collect_activation_stats(model, self.loader())
        assert model in activation_stats._MEMO
        gc.collect()
        entries = len(activation_stats._MEMO)
        alive = weakref.ref(model)
        del model
        gc.collect()
        assert alive() is None
        assert len(activation_stats._MEMO) == entries - 1

    def test_fault_injection_recomputes_and_restores(self, model, runs):
        from repro.faults import FaultSpec, inject_faults

        clean = collect_activation_stats(model, self.loader())
        with inject_faults(model, FaultSpec.pruning(0.3, seed=4)):
            faulted = collect_activation_stats(model, self.loader())
            expected = self.fresh(model, self.loader())
        assert len(runs) == 3 * 3
        _assert_same_stats(faulted, expected)
        assert faulted[-1].percentiles.tobytes() != clean[-1].percentiles.tobytes()
        _assert_same_stats(collect_activation_stats(model, self.loader()), clean)

    def test_conversions_share_one_calibration(self, model, runs):
        results = [
            convert_dnn_to_snn(model, self.loader(), ConversionConfig(timesteps=t, strategy=s))
            for t in (2, 3) for s in ("proposed", "threshold_relu")
        ]
        assert len(runs) == 3
        for result in results[1:]:
            _assert_same_stats(result.stats, results[0].stats)


class TestConverterResNet:
    @pytest.fixture(scope="class")
    def conversion(self, small_resnet, batches):
        return convert_dnn_to_snn(
            small_resnet, batches, ConversionConfig(timesteps=2)
        )

    def test_residual_blocks_mapped(self, conversion):
        blocks = [
            m for m in conversion.snn.modules()
            if isinstance(m, SpikingResidualBlock)
        ]
        assert len(blocks) == 9

    def test_neuron_count(self, conversion, small_resnet):
        assert len(conversion.snn.spiking_neurons()) == 19

    def test_forward_shape(self, conversion, batches):
        images, _ = next(iter(batches))
        assert conversion.snn(images).shape == (images.shape[0], 5)

    def test_absorb_beta_rejected_for_residual(self, conversion):
        with pytest.raises(NotImplementedError):
            absorb_beta(conversion.snn)


class TestAbsorbBeta:
    def test_equivalence_on_vgg(self, small_vgg, batches):
        plain = convert_dnn_to_snn(
            small_vgg, batches, ConversionConfig(timesteps=2)
        )
        absorbed = convert_dnn_to_snn(
            small_vgg, batches, ConversionConfig(timesteps=2, absorb_beta=True)
        )
        for neuron in absorbed.snn.spiking_neurons():
            assert neuron.beta == 1.0
        images, _ = next(iter(batches))
        plain.snn.eval()
        absorbed.snn.eval()
        np.testing.assert_allclose(
            plain.snn(images).data, absorbed.snn(images).data, atol=1e-8
        )


class TestConversionImprovesAccuracy:
    def test_proposed_beats_unscaled_at_t2(self, tiny_context):
        """The paper's central low-latency claim at reduced scale."""
        loader = tiny_context.calibration_loader()
        test_loader = tiny_context.test_loader()
        proposed = convert_dnn_to_snn(
            tiny_context.model, loader,
            ConversionConfig(timesteps=2, strategy="proposed"),
        )
        unscaled = convert_dnn_to_snn(
            tiny_context.model, tiny_context.calibration_loader(),
            ConversionConfig(timesteps=2, strategy="threshold_relu"),
        )
        acc_proposed = evaluate_snn(proposed.snn, test_loader)
        acc_unscaled = evaluate_snn(unscaled.snn, test_loader)
        assert acc_proposed > acc_unscaled
