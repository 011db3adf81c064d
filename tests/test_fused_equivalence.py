"""Fused (layer-major) vs stepwise (step-major) engine equivalence.

``SpikingNetwork`` executes the same temporal unroll two ways: the
classic step-major loop and the time-folded layer-major engine (PR 3).
These tests pin the contract from ``repro.snn.network``: identical
logits, spike counts and BPTT gradients for every ``output_mode``,
neuron configuration (IF/LIF, soft/hard reset, ``beta``, non-zero
initial potential), encoder, and probe (event counting, step monitors,
drift diagnosis) — or a documented stepwise fallback where per-step
semantics demand one.
"""

import numpy as np
import pytest

from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.conversion.diagnostics import _snn_average_outputs
from repro.data import DataLoader
from repro.experiments.fig1 import _collect_snn_average_currents
from repro.faults import FaultSpec, TransmissionFaults, inject_faults
from repro.models import vgg11
from repro.nn import Conv2d, Flatten, Linear, tap
from repro.obs import DriftMonitor, get_registry, monitored, observe
from repro.snn import (
    IFNeuron,
    PoissonEncoder,
    SpikingNetwork,
    SpikingNeuron,
    SpikingResidualBlock,
    SpikingSequential,
    StepWrapper,
    fold_time,
    record_spike_raster,
    tile_time,
    unfold_time,
)
from repro.tensor import Tensor, no_grad
from repro.train.lsuv import lsuv_init
from repro.train.regularizers import SpikeRateRegularizer

from .snn_oracle import (
    FUSED_CONTRACT,
    NEURON_CONFIGS,
    T,
    assert_logits_match,
    build_net,
    counted_forward,
    images_batch,
    run_recorded,
)


def backward_pass(snn, images, seed=11):
    """Forward + BPTT backward under a fixed projection loss; returns
    ``(logits, input gradient, {param name: gradient})``."""
    snn.eval()
    snn.zero_grad()
    x = Tensor(images, requires_grad=True)
    logits = snn(x)
    weights = Tensor(np.random.default_rng(seed).normal(size=logits.data.shape))
    (logits * weights).sum().backward()
    grads = {
        name: param.grad.copy()
        for name, param in snn.named_parameters()
        if param.grad is not None
    }
    return logits.data, x.grad.copy(), grads


class TestForwardEquivalence:
    @pytest.mark.parametrize("neuron_fn", NEURON_CONFIGS)
    @pytest.mark.parametrize("output_mode", SpikingNetwork.OUTPUT_MODES)
    def test_logits_and_spike_counts_match(self, neuron_fn, output_mode):
        images = images_batch()
        logits, spikes = {}, {}
        for mode in SpikingNetwork.MODES:
            snn = build_net(neuron_fn, mode, output_mode=output_mode)
            logits[mode], spikes[mode] = run_recorded(snn, images)
        assert_logits_match(logits["fused"], logits["stepwise"])
        assert spikes["fused"] == spikes["stepwise"] > 0

    def test_poisson_encoder_folds_frames(self):
        # Non-direct encoding takes the fold_time path (no prefix
        # caching); identical encoder seeds give identical frames.
        images = images_batch()
        logits = {}
        for mode in SpikingNetwork.MODES:
            snn = build_net(
                lambda: IFNeuron(v_threshold=0.6), mode,
                encoder=PoissonEncoder(rng=np.random.default_rng(5)),
            )
            logits[mode], _ = run_recorded(snn, images)
        assert_logits_match(logits["fused"], logits["stepwise"])

    def test_temporal_dropout_training(self):
        # The fused mask is sampled at frame shape from the same RNG
        # stream as the first step-major draw, then shared across the
        # T time blocks — so training forwards agree exactly.
        images = images_batch()
        logits = {}
        for mode in SpikingNetwork.MODES:
            snn = build_net(
                lambda: IFNeuron(v_threshold=0.6), mode, dropout=0.4,
            )
            snn.train()
            with no_grad():
                logits[mode] = snn(images).data
        assert_logits_match(logits["fused"], logits["stepwise"])

    def test_batchnorm_eval_folds(self):
        images = images_batch()
        logits = {}
        for mode in SpikingNetwork.MODES:
            snn = build_net(
                lambda: IFNeuron(v_threshold=0.6), mode, batchnorm=True,
            )
            logits[mode], _ = run_recorded(snn, images)
        assert_logits_match(logits["fused"], logits["stepwise"])

    def test_batchnorm_train_falls_back_per_step(self):
        # Train-mode BN computes batch statistics; a folded batch would
        # pool them across time steps, so the fused engine replays BN
        # per step.  Outputs and running-stat updates must both match.
        images = images_batch()
        logits, stats = {}, {}
        for mode in SpikingNetwork.MODES:
            snn = build_net(
                lambda: IFNeuron(v_threshold=0.6), mode, batchnorm=True,
            )
            snn.train()
            with no_grad():
                logits[mode] = snn(images).data
            bn = snn.body[1].inner
            stats[mode] = (bn.running_mean.copy(), bn.running_var.copy())
        assert_logits_match(logits["fused"], logits["stepwise"])
        # Running stats can differ by one ulp: numpy's pairwise mean
        # blocks differently over the tiled view than over the freshly
        # computed per-step activation.
        np.testing.assert_allclose(
            stats["fused"][0], stats["stepwise"][0], rtol=1e-14
        )
        np.testing.assert_allclose(
            stats["fused"][1], stats["stepwise"][1], rtol=1e-14
        )

    def test_residual_block_equivalence(self):
        images = np.random.default_rng(3).random((2, 2, 4, 4))
        logits = {}
        for mode in SpikingNetwork.MODES:
            rng = np.random.default_rng(7)
            block = SpikingResidualBlock(
                conv1=StepWrapper(Conv2d(2, 2, 3, padding=1, rng=rng)),
                neuron1=IFNeuron(v_threshold=0.5),
                conv2=StepWrapper(Conv2d(2, 2, 3, padding=1, rng=rng)),
                shortcut=StepWrapper(Conv2d(2, 2, 1, rng=rng)),
                neuron2=IFNeuron(v_threshold=0.5),
            )
            body = SpikingSequential(
                block,
                StepWrapper(Flatten()),
                StepWrapper(Linear(2 * 4 * 4, 3, bias=False, rng=rng)),
            )
            snn = SpikingNetwork(body, timesteps=T, mode=mode)
            logits[mode], _ = run_recorded(snn, images)
        assert_logits_match(logits["fused"], logits["stepwise"])


class TestGradientEquivalence:
    @pytest.mark.parametrize("neuron_fn", NEURON_CONFIGS)
    def test_bptt_gradients_match(self, neuron_fn):
        # The gradcheck of the tentpole: same surrogate-gradient BPTT
        # through both engines — weights, threshold, leak, and input.
        images = images_batch()
        results = {
            mode: backward_pass(build_net(neuron_fn, mode), images)
            for mode in SpikingNetwork.MODES
        }
        logits_f, gx_f, grads_f = results["fused"]
        logits_s, gx_s, grads_s = results["stepwise"]
        assert_logits_match(logits_f, logits_s)
        np.testing.assert_allclose(gx_f, gx_s, rtol=1e-9, atol=1e-12)
        assert set(grads_f) == set(grads_s)
        assert any("v_threshold" in name for name in grads_f)
        assert any("leak" in name for name in grads_f)
        for name in grads_s:
            np.testing.assert_allclose(
                grads_f[name], grads_s[name], rtol=1e-9, atol=1e-12,
                err_msg=f"gradient mismatch for {name}",
            )

    @pytest.mark.parametrize("output_mode", SpikingNetwork.OUTPUT_MODES)
    def test_output_mode_gradients_match(self, output_mode):
        images = images_batch()
        results = {
            mode: backward_pass(
                build_net(lambda: IFNeuron(v_threshold=0.6), mode,
                          output_mode=output_mode),
                images,
            )
            for mode in SpikingNetwork.MODES
        }
        _, gx_f, grads_f = results["fused"]
        _, gx_s, grads_s = results["stepwise"]
        np.testing.assert_allclose(gx_f, gx_s, rtol=1e-9, atol=1e-12)
        for name in grads_s:
            np.testing.assert_allclose(
                grads_f[name], grads_s[name], rtol=1e-9, atol=1e-12,
                err_msg=f"gradient mismatch for {name}",
            )


class TestEventDrivenEquivalence:
    def test_accumulate_counts_match(self):
        # The fused engine runs the direct-encoded stem once and the
        # hidden layers once on the folded batch; per image, the
        # dispatcher's exact counts still equal the stepwise engine's
        # and the brute-force oracle's.
        images = images_batch()
        logits, counts = {}, {}
        for mode in SpikingNetwork.MODES:
            snn = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
            logits[mode], counts[mode], expected = counted_forward(snn, images)
            assert counts[mode] == expected
        assert_logits_match(logits["fused"], logits["stepwise"])
        assert counts["fused"] == counts["stepwise"]
        assert all(accumulates > 0 for _, accumulates in counts["fused"])


def _raster_probe(snn, images):
    return {"rasters": ("exact", record_spike_raster(snn, images))}


def _average_outputs_probe(snn, images):
    return {"outputs": ("close", _snn_average_outputs(snn, images))}


def _average_currents_probe(snn, images):
    loader = [(images, np.zeros(len(images)))]
    currents = _collect_snn_average_currents(snn, 0, loader, max_batches=1)
    return {"currents": ("close", currents)}


def _regularizer_probe(snn, images):
    snn.train()
    snn.zero_grad()
    reg = SpikeRateRegularizer(0.5).attach(snn)
    try:
        snn(images)
        penalty = reg.penalty()
        penalty.backward()
    finally:
        reg.detach()
    grads = {
        name: param.grad.copy()
        for name, param in snn.named_parameters()
        if param.grad is not None
    }
    return {"penalty": ("close", penalty.item()), "grads": ("grad", grads)}


def _transmission_probe(**rates):
    def probe(snn, images):
        snn.eval()
        spec = FaultSpec(transmission=TransmissionFaults(**rates), seed=4)
        with inject_faults(snn, spec) as session, no_grad():
            logits = snn(images).data
        stats = [
            {k: record[k] for k in ("layer", "steps", "spikes_dropped",
                                    "frames_dropped")}
            for record in session.telemetry.records
            if record["fault"] == "transmission"
        ]
        assert sum(s["spikes_dropped"] for s in stats) > 0
        return {"logits": ("close", logits), "telemetry": ("exact", stats)}

    return probe


def _event_counts_probe(snn, images):
    logits, counts, expected = counted_forward(snn, images)
    assert counts == expected
    return {"logits": ("close", logits), "counts": ("exact", counts)}


def _inner_conv_probe(snn, images):
    # The first conv sees identical frames under direct encoding; a
    # replacement that differs per step must still reach later layers.
    conv = snn.body[0].inner
    inputs = []

    def scale(_conv, x, out):
        inputs.append(x.data.copy())
        return out * float(len(inputs))

    snn.eval()
    with tap(conv, scale), no_grad():
        logits = snn(images).data
    return {"logits": ("close", logits), "inputs": ("exact", inputs)}


TAP_PROBES = [
    pytest.param(_raster_probe, id="spike-raster"),
    pytest.param(_average_outputs_probe, id="snn-average-outputs"),
    pytest.param(_average_currents_probe, id="snn-average-currents"),
    pytest.param(_regularizer_probe, id="spike-rate-regularizer"),
    pytest.param(_transmission_probe(spike_drop_rate=0.3), id="spike-drop"),
    pytest.param(_transmission_probe(frame_drop_rate=0.5), id="frame-drop"),
    pytest.param(_event_counts_probe, id="event-counts"),
    pytest.param(_inner_conv_probe, id="step-wrapper-inner-conv"),
]


TOLERANCES = {
    "close": FUSED_CONTRACT,                # logits contract
    "grad": dict(rtol=1e-9, atol=1e-12),    # gradient contract
}


def _assert_probe_results_match(kind, fused, stepwise):
    if kind == "exact":
        np.testing.assert_equal(fused, stepwise)
        return
    if isinstance(stepwise, dict):
        assert set(fused) == set(stepwise)
        pairs = [(fused[key], stepwise[key]) for key in stepwise]
    elif isinstance(stepwise, list):
        assert len(fused) == len(stepwise)
        pairs = zip(fused, stepwise)
    else:
        pairs = [(fused, stepwise)]
    for f, s in pairs:
        np.testing.assert_allclose(f, s, **TOLERANCES[kind])


@pytest.fixture
def neuron_forward_calls(monkeypatch):
    """Counts per-step ``SpikingNeuron.forward`` calls (the fused
    engine's neurons run ``forward_fused`` scans instead)."""
    calls = []
    original = SpikingNeuron.forward

    def spy(self, current):
        calls.append(self)
        return original(self, current)

    monkeypatch.setattr(SpikingNeuron, "forward", spy)
    return calls


class TestTapEquivalence:
    @pytest.mark.parametrize("probe", TAP_PROBES)
    def test_tap_user_matches_stepwise_and_stays_fused(
        self, probe, neuron_forward_calls
    ):
        images = images_batch()
        results, calls = {}, {}
        for mode in SpikingNetwork.MODES:
            neuron_forward_calls.clear()
            snn = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
            results[mode] = probe(snn, images)
            calls[mode] = len(neuron_forward_calls)
            for module in snn.modules():
                assert module._taps == ()
        assert calls["fused"] == 0
        assert calls["stepwise"] > 0
        assert set(results["fused"]) == set(results["stepwise"])
        for name, (kind, stepwise) in results["stepwise"].items():
            _assert_probe_results_match(kind, results["fused"][name][1], stepwise)


class TestModePlumbing:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            build_net(lambda: IFNeuron(), "warp")
        snn = build_net(lambda: IFNeuron(), "fused")
        with pytest.raises(ValueError, match="mode must be one of"):
            with snn.using_mode("warp"):
                pass

    def test_using_mode_restores(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        images = images_batch()
        with no_grad():
            baseline = snn(images).data
        with snn.using_mode("stepwise"):
            assert snn.resolved_mode() == "stepwise"
            with no_grad():
                pinned = snn(images).data
        assert snn.mode == "fused"
        assert np.array_equal(baseline, pinned)

    def test_monitor_forces_stepwise(self):
        snn = build_net(lambda: IFNeuron(), "fused")
        assert snn.resolved_mode() == "fused"
        snn.attach_monitor(object())
        assert snn.resolved_mode() == "stepwise"
        snn.detach_monitor()
        assert snn.resolved_mode() == "fused"

    def test_fold_unfold_round_trip(self):
        frames = [Tensor(np.full((2, 3), float(t))) for t in range(T)]
        fused = fold_time(frames)
        assert fused.data.shape == (2 * T, 3)
        back = unfold_time(fused, T)
        for t in range(T):
            np.testing.assert_array_equal(back[t].data, frames[t].data)
        with pytest.raises(ValueError, match="not divisible"):
            unfold_time(fused, 4)

    def test_tile_time_gradient_sums_blocks(self):
        frame = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tiled = tile_time(frame, T)
        assert tiled.data.shape == (2 * T, 3)
        for t in range(T):
            np.testing.assert_array_equal(tiled.data[2 * t:2 * t + 2], frame.data)
        tiled.sum().backward()
        np.testing.assert_array_equal(frame.grad, np.full((2, 3), float(T)))


@pytest.fixture(scope="module")
def converted():
    rng = np.random.default_rng(0)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(1),
    )
    loader = DataLoader(rng.random((16, 3, 8, 8)), rng.integers(0, 5, 16), 8)
    conversion = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2))
    return conversion, model, rng.random((4, 3, 8, 8))


class TestObsCompatibility:
    def test_step_monitor_series_identical(self):
        # A StepMonitor needs true step-boundary state, so a fused
        # network documents an explicit fallback: while attached,
        # resolved_mode() is stepwise and the recorded gauge
        # trajectories match a stepwise-pinned twin exactly.
        images = images_batch()
        snapshots, steps = {}, {}
        for mode in SpikingNetwork.MODES:
            snn = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
            snn.eval()
            with observe(), monitored(snn) as monitor:
                assert snn.resolved_mode() == "stepwise"
                with no_grad():
                    snn(images)
                steps[mode] = monitor.steps_seen
            assert snn.resolved_mode() == mode
            snapshots[mode] = get_registry().snapshot()
        assert steps["fused"] == steps["stepwise"] == T
        assert snapshots["fused"] == snapshots["stepwise"]
        # The series is non-trivial: per-layer spike-rate and membrane
        # histograms plus spike counters were actually recorded.
        assert snapshots["fused"]["histograms"]
        assert snapshots["fused"]["counters"]

    def test_drift_monitor_same_series_under_both_modes(self, converted):
        # Conversion-drift diagnosis taps layer forwards per step; the
        # fused engine honours those probes, so drift records agree.
        conversion, model, images = converted
        records = {}
        for mode in SpikingNetwork.MODES:
            monitor = DriftMonitor(
                conversion, model, [(images, np.zeros(len(images)))]
            )
            with conversion.snn.using_mode(mode):
                monitor.snapshot(phase=mode)
            records[mode] = [
                {k: v for k, v in record.items() if k not in ("ts", "phase")}
                for record in monitor.snapshots
            ]
        assert records["fused"] == records["stepwise"]
        assert len(records["fused"]) > 0


class TestConvertedNetworkEquivalence:
    def test_probed_dnn_converts_to_a_folding_snn(self, monkeypatch):
        # LSUV and activation statistics probe the DNN's layers before
        # conversion deep-copies them; the probes must leave nothing
        # behind that unfolds the SNN's convolutions into per-step calls.
        rng = np.random.default_rng(0)
        model = vgg11(
            num_classes=5, image_size=8, width_multiplier=0.125,
            rng=np.random.default_rng(1),
        )
        lsuv_init(model, rng.random((8, 3, 8, 8)))
        loader = DataLoader(rng.random((16, 3, 8, 8)), rng.integers(0, 5, 16), 8)
        snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=T)).snn
        calls = []
        original = Conv2d.forward

        def spy(self, x):
            calls.append(self)
            return original(self, x)

        monkeypatch.setattr(Conv2d, "forward", spy)
        snn.eval()
        with no_grad():
            snn(rng.random((4, 3, 8, 8)))
        convs = [m for m in snn.modules() if isinstance(m, Conv2d)]
        assert calls == convs

    def test_converted_vgg_logits_and_grads(self, converted):
        conversion, _model, images = converted
        snn = conversion.snn
        outputs = {}
        for mode in SpikingNetwork.MODES:
            with snn.using_mode(mode):
                outputs[mode] = run_recorded(snn, images)
        assert_logits_match(outputs["fused"][0], outputs["stepwise"][0])
        assert outputs["fused"][1] == outputs["stepwise"][1] > 0

        grads = {}
        for mode in SpikingNetwork.MODES:
            with snn.using_mode(mode):
                grads[mode] = backward_pass(snn, images)
        for name in grads["stepwise"][2]:
            np.testing.assert_allclose(
                grads["fused"][2][name], grads["stepwise"][2][name],
                rtol=1e-9, atol=1e-12, err_msg=f"gradient mismatch for {name}",
            )
