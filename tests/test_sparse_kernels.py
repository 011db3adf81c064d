"""Event-driven sparse kernels and activity-adaptive dispatch (PR 8).

Pins the contract from ``repro.tensor.sparse`` + ``repro.snn.dispatch``:
the CSR spike packing round-trips, the gather kernels match the dense
layers to float tolerance across geometries / amplitudes / per-event
values / int8 weights, and a dispatch-routed ``SpikingNetwork`` produces
the same logits and spike counts as the dense engines — fused and
stepwise, IF and LIF, soft and hard reset, direct and Poisson encoding,
under injected dead-unit faults and across warm streaming windows.
Crossover calibration must be deterministic under an injected clock and
round-trip through its artefact, and the dispatcher's exact accumulate
accounting must agree with the event-driven reference engine and reach
the energy/observability gauges.  Two paired timing gates keep the
dispatcher honest on a converted tiny VGG: on low-activity input the
dispatched pass beats dense, and on a fully dense-routed workload the
dispatcher's bookkeeping costs under 5%.
"""

import json
import os

import numpy as np
import pytest

from repro.faults import FaultSpec
from repro.hw.quantization import quantize_array, quantize_int8
from repro.nn import Conv2d, Flatten, Linear
from repro.obs.instruments import record_dispatch_profile, record_energy_profile
from repro.obs.metrics import MetricsRegistry
from repro.snn import (
    EventDrivenNetwork,
    IFNeuron,
    LIFNeuron,
    PoissonEncoder,
    SpikingMaxPool,
    SpikingNetwork,
    SpikingSequential,
    StepWrapper,
)
from repro.snn.crossover import (
    calibrate_crossover,
    main as crossover_main,
    parse_signature,
    write_artifact,
)
from repro.snn.dispatch import (
    CROSSOVER_SCHEMA,
    CrossoverTable,
    SparseDispatch,
    layer_signature,
)
from repro.tensor import Tensor, default_dtype, no_grad
from repro.tensor import sparse as sparse_mod
from repro.tensor.sparse import (
    pack_conv_weight,
    pack_spikes,
    sparse_conv2d_gather,
    sparse_linear_gather,
)

T = 3

#: Route every weight layer sparse regardless of measured density.
FORCE_SPARSE = {"conv": 1.1, "linear": 1.1}
#: Keep every weight layer dense (density is never <= -1).
FORCE_DENSE = {"conv": -1.0, "linear": -1.0}

NEURON_CONFIGS = [
    pytest.param(lambda: IFNeuron(v_threshold=0.6), id="if-soft"),
    pytest.param(
        lambda: LIFNeuron(v_threshold=0.6, leak=0.85, beta=1.3,
                          initial_potential=0.35),
        id="lif-beta-shift",
    ),
    pytest.param(
        lambda: LIFNeuron(v_threshold=0.6, leak=1.0, reset_mode="hard"),
        id="if-hard",
    ),
]

ENCODER_CONFIGS = [
    pytest.param(lambda: None, id="direct"),
    pytest.param(
        lambda: PoissonEncoder(rng=np.random.default_rng(5)), id="poisson"
    ),
]


def build_net(neuron_fn, mode, timesteps=T, output_mode="mean",
              encoder=None, seed=0):
    """Seeded conv -> neuron -> pool -> linear twin-builder (same idiom
    as test_fused_equivalence: equal seeds give exact parameter twins)."""
    rng = np.random.default_rng(seed)
    body = SpikingSequential(
        StepWrapper(Conv2d(1, 2, 3, padding=1, rng=rng)),
        neuron_fn(),
        SpikingMaxPool(2),
        StepWrapper(Flatten()),
        StepWrapper(Linear(2 * 2 * 2, 3, rng=rng)),
    )
    return SpikingNetwork(
        body, timesteps=timesteps, encoder=encoder,
        output_mode=output_mode, mode=mode,
    )


def images_batch(n=4, seed=3):
    return np.random.default_rng(seed).random((n, 1, 4, 4))


def spike_frame(shape, density, seed=0, amplitude=1.0):
    """Binary frame with exactly ``round(density * size)`` active units."""
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    active = min(total, max(0, int(round(density * total))))
    flat = np.zeros(total)
    if active:
        flat[rng.permutation(total)[:active]] = amplitude
    return flat.reshape(shape)


def run_recorded(snn, images):
    snn.eval()
    snn.reset_spike_stats()
    snn.set_recording(True)
    with no_grad():
        logits = snn(images)
    return logits.data, snn.total_spikes()


def assert_logits_match(sparse, dense):
    """Gather kernels sum events in a different order than the GEMM, so
    agreement is to within a few ulp rather than bitwise."""
    np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-12)


# ======================================================================
# CSR packing
# ======================================================================
class TestPackSpikes:
    def test_roundtrip_binary(self):
        frame = spike_frame((4, 3, 5, 5), 0.1, seed=1)
        sp = pack_spikes(frame)
        assert sp.amplitude == 1.0 and sp.values is None
        assert sp.nnz == int(np.count_nonzero(frame))
        np.testing.assert_array_equal(sp.to_dense(), frame)

    def test_uniform_amplitude_detected(self):
        frame = spike_frame((2, 8), 0.25, seed=2, amplitude=0.7)
        sp = pack_spikes(frame)
        assert sp.values is None
        assert sp.amplitude == pytest.approx(0.7)
        np.testing.assert_allclose(sp.to_dense(), frame)

    def test_asserted_amplitude_skips_gather(self):
        frame = spike_frame((2, 16), 0.5, seed=3, amplitude=0.6)
        sp = pack_spikes(frame, amplitude=0.6)
        assert sp.values is None and sp.amplitude == pytest.approx(0.6)
        np.testing.assert_allclose(sp.to_dense(), frame)

    def test_per_event_values(self):
        rng = np.random.default_rng(4)
        frame = spike_frame((3, 12), 0.4, seed=4)
        frame *= rng.random(frame.shape) + 0.5  # non-uniform heights
        sp = pack_spikes(frame)
        assert sp.values is not None
        np.testing.assert_allclose(sp.to_dense(), frame)

    def test_empty_frame(self):
        sp = pack_spikes(np.zeros((2, 3, 4, 4)))
        assert sp.nnz == 0 and sp.density == 0.0
        np.testing.assert_array_equal(sp.to_dense(), np.zeros((2, 3, 4, 4)))

    def test_density(self):
        frame = spike_frame((2, 100), 0.05, seed=5)
        assert pack_spikes(frame).density == pytest.approx(0.05)


# ======================================================================
# Gather kernels vs dense layers
# ======================================================================
def dense_forward(layer, frame):
    with no_grad():
        return layer(Tensor(frame)).data


class TestSparseLinearGather:
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3, 1.0])
    @pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
    def test_matches_dense(self, density, bias):
        rng = np.random.default_rng(6)
        layer = Linear(24, 7, bias=bias, rng=rng)
        frame = spike_frame((5, 24), density, seed=6, amplitude=0.8)
        out = sparse_linear_gather(
            pack_spikes(frame), layer.weight.data,
            bias=layer.bias.data if bias else None,
        )
        assert_logits_match(out, dense_forward(layer, frame))

    def test_per_event_values_path(self):
        rng = np.random.default_rng(7)
        layer = Linear(16, 5, rng=rng)
        frame = spike_frame((3, 16), 0.4, seed=7) * (rng.random((3, 16)) + 0.5)
        out = sparse_linear_gather(
            pack_spikes(frame), layer.weight.data, bias=layer.bias.data
        )
        assert_logits_match(out, dense_forward(layer, frame))

    def test_int8_matches_dequantized_dense(self):
        rng = np.random.default_rng(8)
        layer = Linear(32, 9, bias=False, rng=rng)
        qw = quantize_int8(layer.weight.data)
        frame = spike_frame((4, 32), 0.2, seed=8, amplitude=1.3)
        out = sparse_linear_gather(
            pack_spikes(frame, amplitude=1.3),
            qweight=qw.q, qscale=qw.scale,
            out_dtype=layer.weight.data.dtype,
        )
        dense = frame @ qw.dequantize().T
        np.testing.assert_allclose(out, dense, rtol=1e-12, atol=1e-12)

    def test_requires_some_weight(self):
        with pytest.raises(ValueError):
            sparse_linear_gather(pack_spikes(np.zeros((1, 4))))


CONV_GEOMETRIES = [
    pytest.param(dict(cin=3, cout=4, k=3, s=1, p=1, h=6, w=6), id="k3s1p1"),
    pytest.param(dict(cin=2, cout=3, k=3, s=2, p=0, h=7, w=7), id="k3s2p0"),
    pytest.param(dict(cin=4, cout=2, k=1, s=1, p=0, h=5, w=5), id="k1s1p0"),
    pytest.param(dict(cin=2, cout=5, k=5, s=1, p=2, h=8, w=8), id="k5s1p2"),
]


class TestSparseConvGather:
    @pytest.mark.parametrize("geom", CONV_GEOMETRIES)
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5])
    def test_matches_dense(self, geom, density):
        rng = np.random.default_rng(9)
        layer = Conv2d(geom["cin"], geom["cout"], geom["k"],
                       stride=geom["s"], padding=geom["p"], bias=True,
                       rng=rng)
        frame = spike_frame(
            (3, geom["cin"], geom["h"], geom["w"]), density,
            seed=9, amplitude=0.9,
        )
        out = sparse_conv2d_gather(
            pack_spikes(frame), layer.weight.data,
            stride=geom["s"], padding=geom["p"], bias=layer.bias.data,
        )
        assert_logits_match(out, dense_forward(layer, frame))

    @pytest.mark.parametrize("geom", CONV_GEOMETRIES)
    def test_offset_loop_matches_fused(self, geom, monkeypatch):
        """The all-offsets-fused path and the per-offset loop are the
        same kernel; forcing the budget to 0 exercises the loop on the
        small frames the fused path would normally claim."""
        rng = np.random.default_rng(10)
        layer = Conv2d(geom["cin"], geom["cout"], geom["k"],
                       stride=geom["s"], padding=geom["p"], bias=False,
                       rng=rng)
        frame = spike_frame(
            (2, geom["cin"], geom["h"], geom["w"]), 0.1, seed=10
        )
        sp = pack_spikes(frame, amplitude=1.0)
        fused = sparse_conv2d_gather(
            sp, layer.weight.data, stride=geom["s"], padding=geom["p"]
        )
        monkeypatch.setattr(sparse_mod, "_FUSED_OFFSET_BUDGET", 0)
        looped = sparse_conv2d_gather(
            sp, layer.weight.data, stride=geom["s"], padding=geom["p"]
        )
        assert_logits_match(looped, fused)
        assert_logits_match(fused, dense_forward(layer, frame))

    def test_per_event_values_path(self):
        rng = np.random.default_rng(11)
        layer = Conv2d(3, 4, 3, padding=1, bias=True, rng=rng)
        frame = spike_frame((2, 3, 6, 6), 0.15, seed=11)
        frame *= rng.random(frame.shape) + 0.5
        out = sparse_conv2d_gather(
            pack_spikes(frame), layer.weight.data, padding=1,
            bias=layer.bias.data,
        )
        assert_logits_match(out, dense_forward(layer, frame))

    def test_packed_weight_reuse(self):
        rng = np.random.default_rng(12)
        layer = Conv2d(3, 4, 3, padding=1, bias=False, rng=rng)
        packed = pack_conv_weight(layer.weight.data)
        frame = spike_frame((2, 3, 6, 6), 0.1, seed=12)
        out = sparse_conv2d_gather(
            pack_spikes(frame, amplitude=1.0), stride=1, padding=1,
            packed=packed, out_dtype=layer.weight.data.dtype,
        )
        assert_logits_match(out, dense_forward(layer, frame))

    def test_int8_matches_dequantized_dense(self):
        rng = np.random.default_rng(13)
        layer = Conv2d(3, 4, 3, padding=1, bias=False, rng=rng)
        qw = quantize_int8(layer.weight.data)
        frame = spike_frame((2, 3, 6, 6), 0.1, seed=13, amplitude=0.78)
        out = sparse_conv2d_gather(
            pack_spikes(frame, amplitude=0.78),
            stride=1, padding=1,
            qpacked=pack_conv_weight(qw.q), qscale=qw.scale,
            out_dtype=layer.weight.data.dtype,
        )
        layer.weight.data[...] = qw.dequantize()
        np.testing.assert_allclose(
            out, dense_forward(layer, frame), rtol=1e-9, atol=1e-12
        )

    def test_requires_some_weight(self):
        with pytest.raises(ValueError):
            sparse_conv2d_gather(pack_spikes(np.zeros((1, 2, 3, 3))))


# ======================================================================
# int8 quantization plumbing (satellite: dtype preservation)
# ======================================================================
class TestQuantizationDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_array_preserves_dtype(self, dtype):
        with default_dtype(dtype):
            values = np.asarray(
                np.random.default_rng(14).normal(size=(8, 8)), dtype=dtype
            )
            assert quantize_array(values, 8).dtype == np.dtype(dtype)

    def test_quantize_int8_matches_quantize_array_grid(self):
        values = np.random.default_rng(15).normal(size=(6, 10))
        qw = quantize_int8(values)
        np.testing.assert_array_equal(qw.dequantize(), quantize_array(values, 8))
        assert qw.q.dtype == np.int8
        assert qw.dequantize().dtype == values.dtype

    def test_quantize_int8_zero_weights(self):
        qw = quantize_int8(np.zeros((3, 3)))
        assert qw.scale == 1.0
        np.testing.assert_array_equal(qw.dequantize(), np.zeros((3, 3)))

    def test_quantize_int8_rejects_bad_bits(self):
        values = np.ones((2, 2))
        with pytest.raises(ValueError):
            quantize_int8(values, bits=1)
        with pytest.raises(ValueError):
            quantize_int8(values, bits=9)


# ======================================================================
# Dispatch-routed network equivalence
# ======================================================================
class TestDispatchEquivalence:
    @pytest.mark.parametrize("mode", ["fused", "stepwise"])
    @pytest.mark.parametrize("encoder_fn", ENCODER_CONFIGS)
    @pytest.mark.parametrize("neuron_fn", NEURON_CONFIGS)
    def test_forced_sparse_matches_dense(self, neuron_fn, encoder_fn, mode):
        images = images_batch()
        dense = build_net(neuron_fn, mode, encoder=encoder_fn())
        ref_logits, ref_spikes = run_recorded(dense, images)

        routed = build_net(neuron_fn, mode, encoder=encoder_fn())
        dispatch = routed.enable_sparse_dispatch(
            defaults=FORCE_SPARSE, count_ops=True
        )
        logits, spikes = run_recorded(routed, images)

        assert_logits_match(logits, ref_logits)
        assert spikes == ref_spikes
        stats = dispatch.layer_stats()
        assert stats, "dispatcher saw no weight layers"
        assert all(st.dense_runs == 0 for st in stats)
        assert sum(st.sparse_runs for st in stats) > 0

    @pytest.mark.parametrize("mode", ["fused", "stepwise"])
    def test_int8_within_quantization_tolerance(self, mode):
        images = images_batch()
        dense = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
        ref_logits, _ = run_recorded(dense, images)
        routed = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
        routed.enable_sparse_dispatch(defaults=FORCE_SPARSE, int8=True)
        logits, _ = run_recorded(routed, images)
        np.testing.assert_allclose(logits, ref_logits, atol=0.05, rtol=0.05)

    @pytest.mark.parametrize("mode", ["fused", "stepwise"])
    def test_dead_neuron_faults_survive_routing(self, mode):
        """Injected dead units change the spike pattern; the sparse path
        must track the faulted dense engine exactly."""
        spec = FaultSpec.dead_neurons(0.3, seed=7)
        images = images_batch()
        dense = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
        with dense.inject_faults(spec):
            ref_logits, ref_spikes = run_recorded(dense, images)
        routed = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
        routed.enable_sparse_dispatch(defaults=FORCE_SPARSE)
        with routed.inject_faults(spec):
            logits, spikes = run_recorded(routed, images)
        assert_logits_match(logits, ref_logits)
        assert spikes == ref_spikes


class TestDispatchRouting:
    def test_threshold_picks_path_per_layer(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        dispatch = snn.enable_sparse_dispatch(
            defaults={"conv": 1.1, "linear": -1.0}
        )
        run_recorded(snn, images_batch())
        by_kind = {st.kind: st for st in dispatch.layer_stats()}
        assert by_kind["conv"].dense_runs == 0
        assert by_kind["conv"].sparse_runs > 0
        assert by_kind["linear"].sparse_runs == 0
        assert by_kind["linear"].dense_runs > 0

    def test_dense_route_is_bitwise_identical(self):
        """A dense-routed forward goes through the untouched layer
        forward — the dispatcher must not perturb it at all."""
        images = images_batch()
        plain = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        ref, _ = run_recorded(plain, images)
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        snn.enable_sparse_dispatch(defaults=FORCE_DENSE, count_ops=True)
        logits, _ = run_recorded(snn, images)
        np.testing.assert_array_equal(logits, ref)

    def test_training_and_grad_passes_bypass_dispatch(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        dispatch = snn.enable_sparse_dispatch(defaults=FORCE_SPARSE)
        images = images_batch()
        snn.train()
        snn(images)  # training mode: ineligible
        snn.eval()
        snn(images)  # gradients enabled: ineligible
        assert all(st.calls == 0 for st in dispatch.layer_stats()) or \
            not dispatch.layer_stats()
        with no_grad():
            snn(images)  # eval + no-grad: eligible
        assert sum(st.calls for st in dispatch.layer_stats()) > 0

    def test_disable_restores_dense_engine(self):
        images = images_batch()
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        ref, _ = run_recorded(snn, images)
        snn.enable_sparse_dispatch(defaults=FORCE_SPARSE)
        run_recorded(snn, images)
        snn.disable_sparse_dispatch()
        assert snn.sparse_dispatch is None
        logits, _ = run_recorded(snn, images)
        np.testing.assert_array_equal(logits, ref)

    def test_invalidate_cache_after_weight_mutation(self):
        rng = np.random.default_rng(16)
        layer = Linear(12, 4, bias=False, rng=rng)
        dispatch = SparseDispatch(defaults=FORCE_SPARSE)
        frame = spike_frame((2, 12), 0.25, seed=16)
        x = Tensor(frame)
        first = dispatch.maybe_run(layer, x)
        assert first is not None
        layer.weight.data *= 2.0
        dispatch.invalidate_cache()
        second = dispatch.maybe_run(layer, x)
        assert_logits_match(second.data, dense_forward(layer, frame))

    def test_layer_signatures(self):
        rng = np.random.default_rng(17)
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        linear = Linear(64, 10, rng=rng)
        assert layer_signature(conv, (3, 8, 8)) == (
            "conv:cin=3,cout=8,k=3,s=2,p=1,h=8,w=8"
        )
        assert layer_signature(linear, (64,)) == "linear:in=64,out=10"
        with pytest.raises(TypeError):
            layer_signature(Flatten(), (4,))

    def test_crossover_table_lookup(self):
        table = CrossoverTable(
            entries={"linear:in=64,out=10": 0.08}, defaults={"conv": 0.02}
        )
        assert table.threshold("linear:in=64,out=10") == pytest.approx(0.08)
        assert table.threshold("conv:cin=3,cout=8,k=3,s=1,p=1,h=8,w=8") == (
            pytest.approx(0.02)
        )
        # Unlisted linear shapes fall back to the kind default.
        assert table.threshold("linear:in=9,out=9") == pytest.approx(
            CrossoverTable().defaults["linear"]
        )
        assert table.threshold("unknown:x=1") == 0.0

    def test_rejects_foreign_schema(self):
        with pytest.raises(ValueError, match="schema"):
            CrossoverTable.from_artifact({"schema": "something/else"})


# ======================================================================
# Exact accumulate accounting
# ======================================================================
class TestExactAccumulates:
    def test_matches_event_driven_reference(self):
        """Dispatcher op accounting == the validated event-extraction
        engine, layer by layer (stepwise: every layer runs per step)."""
        images = images_batch()
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        snn.eval()
        _, counts = EventDrivenNetwork(snn).run(images)
        dispatch = snn.enable_sparse_dispatch(
            defaults=FORCE_SPARSE, count_ops=True
        )
        with no_grad():
            snn(images)
        measured = [st.accumulates for st in dispatch.layer_stats()]
        np.testing.assert_allclose(measured, counts.accumulates)

    def test_path_independent(self):
        """Counting is about what the hardware would pay, not which
        simulator path ran — dense-forced and sparse-forced agree."""
        images = images_batch()
        totals = []
        for defaults in (FORCE_SPARSE, FORCE_DENSE):
            snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
            dispatch = snn.enable_sparse_dispatch(
                defaults=defaults, count_ops=True
            )
            run_recorded(snn, images)
            totals.append([st.accumulates for st in dispatch.layer_stats()])
        np.testing.assert_allclose(totals[0], totals[1])

    def test_linear_accumulates_by_hand(self):
        rng = np.random.default_rng(18)
        layer = Linear(10, 6, bias=False, rng=rng)
        dispatch = SparseDispatch(defaults=FORCE_SPARSE, count_ops=True)
        frame = spike_frame((2, 10), 0.3, seed=18)  # 6 events
        dispatch.maybe_run(layer, Tensor(frame))
        (st,) = dispatch.layer_stats()
        assert st.events == int(np.count_nonzero(frame))
        assert st.accumulates == st.events * 6

    def test_event_driven_sparse_execution_unchanged(self):
        """EventDrivenNetwork(sparse=True) runs the gather kernels but
        must report identical logits and event counts."""
        images = images_batch()
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        snn.eval()
        ref_logits, ref_counts = EventDrivenNetwork(snn).run(images)
        logits, counts = EventDrivenNetwork(snn, sparse=True).run(images)
        assert_logits_match(logits.data, ref_logits.data)
        np.testing.assert_allclose(counts.accumulates, ref_counts.accumulates)
        assert counts.total == ref_counts.total


# ======================================================================
# Crossover calibration artefact
# ======================================================================
CAL_SIGNATURES = (
    "conv:cin=2,cout=3,k=3,s=1,p=1,h=4,w=4",
    "linear:in=16,out=8",
)
CAL_DENSITIES = (0.01, 0.05, 0.1)


def counting_timer(sparse_wins_below):
    """Deterministic clock: dense probes cost 1.0; a sparse probe at
    grid position i costs 0.5 while ``densities[i] <= sparse_wins_below``
    else 2.0.  Calls arrive dense-first then densities ascending."""
    state = {"n": 0}
    cycle = 1 + len(CAL_DENSITIES)

    def time_fn(fn):
        fn()
        pos = state["n"] % cycle
        state["n"] += 1
        if pos == 0:
            return 1.0
        return 0.5 if CAL_DENSITIES[pos - 1] <= sparse_wins_below else 2.0

    return time_fn


class TestCrossoverCalibration:
    def test_deterministic_under_injected_clock(self):
        artefacts = [
            calibrate_crossover(
                signatures=CAL_SIGNATURES, densities=CAL_DENSITIES,
                batch=4, seed=0, time_fn=counting_timer(0.05),
            )
            for _ in range(2)
        ]
        assert artefacts[0] == artefacts[1]
        assert artefacts[0]["schema"] == CROSSOVER_SCHEMA

    def test_crossover_snaps_to_largest_winning_density(self):
        artefact = calibrate_crossover(
            signatures=CAL_SIGNATURES, densities=CAL_DENSITIES,
            batch=4, seed=0, time_fn=counting_timer(0.05),
        )
        for entry in artefact["entries"]:
            assert entry["crossover_density"] == pytest.approx(0.05)
        never = calibrate_crossover(
            signatures=CAL_SIGNATURES, densities=CAL_DENSITIES,
            batch=4, seed=0, time_fn=counting_timer(-1.0),
        )
        for entry in never["entries"]:
            assert entry["crossover_density"] == 0.0

    def test_artifact_roundtrip(self, tmp_path):
        artefact = calibrate_crossover(
            signatures=CAL_SIGNATURES, densities=CAL_DENSITIES,
            batch=4, seed=0, time_fn=counting_timer(0.1),
        )
        path = tmp_path / "CROSSOVER.json"
        write_artifact(artefact, str(path))
        table = CrossoverTable.load(str(path))
        for signature in CAL_SIGNATURES:
            assert table.threshold(signature) == pytest.approx(0.1)
        # The loaded table routes a real dispatcher.
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        snn.enable_sparse_dispatch(crossover=str(path))
        logits, _ = run_recorded(snn, images_batch())
        ref = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        assert_logits_match(logits, run_recorded(ref, images_batch())[0])

    def test_parse_signature_validation(self):
        fields = parse_signature("conv:cin=3,cout=8,k=3,s=1,p=1,h=8,w=8")
        assert fields["cin"] == 3 and fields["_kind"] == "conv"
        with pytest.raises(ValueError):
            parse_signature("dense:in=3")
        with pytest.raises(ValueError):
            parse_signature("conv:cin=3,cout=8")  # geometry missing

    def test_density_grid_validation(self):
        with pytest.raises(ValueError):
            calibrate_crossover(
                signatures=CAL_SIGNATURES, densities=(0.0, 0.1), batch=2,
                time_fn=counting_timer(0.1),
            )

    def test_cli_writes_loadable_artifact(self, tmp_path):
        out = tmp_path / "crossover.json"
        assert crossover_main([
            "--signatures", "linear:in=64,out=32",
            "--densities", "0.01,0.1",
            "--repeats", "1", "--quiet", "--out", str(out),
        ]) == 0
        artefact = json.loads(out.read_text())
        assert artefact["schema"] == CROSSOVER_SCHEMA
        assert artefact["densities"] == [0.01, 0.1]
        assert [e["signature"] for e in artefact["entries"]] == [
            "linear:in=64,out=32"
        ]
        assert set(artefact["environment"]) == {
            "python", "implementation", "platform", "machine", "numpy",
            "cpu_count",
        }
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        dispatch = snn.enable_sparse_dispatch(crossover=str(out))
        (entry,) = artefact["entries"]
        assert dispatch.table.threshold("linear:in=64,out=32") == (
            entry["crossover_density"]
        )


# ======================================================================
# Paired timing gates on a converted tiny VGG
# ======================================================================
#: The committed calibration artefact at the repository root.
CROSSOVER_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "CROSSOVER.json",
)


class TestDispatchTimingGates:
    """Back-to-back dense/dispatched timings on the same network, compared
    by minima and retried: medians taken at different moments on a busy
    host drift more than the effect size."""

    def test_low_activity_dispatch_beats_dense(self, converted_tiny_vgg):
        """Attenuated images put the hidden layers well below their
        calibrated crossover densities (the operating point ultra-low-
        latency conversion targets), so most layer-forwards route sparse
        and the dispatched pass must beat the dense engine."""
        from repro.profiling import time_callable

        snn, images = converted_tiny_vgg
        images = images * 0.25
        with no_grad():
            reference = snn(images).data
        probe = snn.enable_sparse_dispatch(
            crossover=CROSSOVER_PATH, count_ops=True
        )
        with no_grad():
            routed = snn(images).data
        assert np.allclose(routed, reference, atol=1e-9)
        stats = probe.layer_stats()
        hidden = [s.mean_density for s in stats[1:]]
        assert max(hidden) <= 0.10, f"hidden density too high: {hidden}"
        sparse_runs = sum(s.sparse_runs for s in stats)
        calls = sum(s.calls for s in stats)
        assert sparse_runs * 2 >= calls, (
            f"sparse routing did not dominate: {sparse_runs}/{calls}"
        )
        dispatch = snn.enable_sparse_dispatch(crossover=CROSSOVER_PATH)

        def run():
            with no_grad():
                return snn(images)

        assert run().shape == (16, 10)
        for attempt in range(3):
            snn._dispatch = None
            dense = time_callable(run, repeats=9, warmup=2)
            snn._dispatch = dispatch
            routed_t = time_callable(run, repeats=9, warmup=2)
            if routed_t.minimum < dense.minimum:
                break
        else:
            raise AssertionError(
                f"sparse-routed pass did not beat dense: "
                f"{routed_t.minimum * 1e3:.3f} ms vs "
                f"{dense.minimum * 1e3:.3f} ms"
            )

    def test_dense_routed_dispatch_overhead(self, converted_tiny_vgg):
        """At standard activity (15-40% hidden density) every weight layer
        stays on the dense GEMM, so an installed dispatcher only pays its
        routing bookkeeping: within 5% plus a 0.1 ms floor of the plain
        engine."""
        from repro.profiling import time_callable

        snn, images = converted_tiny_vgg

        def run():
            with no_grad():
                return snn(images)

        assert run().shape == (16, 10)
        dispatch = snn.enable_sparse_dispatch(crossover=CROSSOVER_PATH)
        for attempt in range(3):
            snn._dispatch = None
            before = time_callable(run, repeats=9, warmup=2)
            snn._dispatch = dispatch
            after = time_callable(run, repeats=9, warmup=2)
            if after.minimum <= before.minimum * 1.05 + 1e-4:
                break
        else:
            raise AssertionError(
                f"dense-path dispatch overhead gate failed: "
                f"{after.minimum * 1e3:.3f} ms dispatched vs "
                f"{before.minimum * 1e3:.3f} ms plain (> 5% + 0.1 ms)"
            )
        stats = dispatch.layer_stats()
        assert stats and all(s.sparse_runs == 0 for s in stats), (
            "expected the standard-activity workload to stay fully dense"
        )


# ======================================================================
# Observability: dispatch gauges and measured energy counts
# ======================================================================
class TestDispatchObservability:
    def test_record_dispatch_profile_gauges(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        dispatch = snn.enable_sparse_dispatch(
            defaults=FORCE_SPARSE, count_ops=True
        )
        run_recorded(snn, images_batch())
        registry = MetricsRegistry()
        rows = record_dispatch_profile(snn, registry=registry)
        assert len(rows) == len(dispatch.layer_stats()) == 2
        gauges = registry.snapshot()["gauges"]
        for layer in range(2):
            for field in ("density", "threshold", "sparse_fraction",
                          "sparse_runs", "dense_runs", "accumulates"):
                assert f"dispatch.{field}{{layer={layer}}}" in gauges
        assert rows[0]["sparse_runs"] > 0

    def test_record_dispatch_profile_without_dispatcher(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        assert record_dispatch_profile(snn, registry=MetricsRegistry()) == []

    def test_report_rows_from_gauges(self):
        from repro.obs.report import _dispatch_rows

        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        snn.enable_sparse_dispatch(defaults=FORCE_SPARSE, count_ops=True)
        run_recorded(snn, images_batch())
        registry = MetricsRegistry()
        record_dispatch_profile(snn, registry=registry)
        rows = _dispatch_rows(registry.snapshot()["gauges"])
        assert [row["layer"] for row in rows] == [0, 1]
        assert all(row["sparse_runs"] > 0 for row in rows)

    def test_energy_profile_uses_measured_counts(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        snn.enable_sparse_dispatch(defaults=FORCE_SPARSE, count_ops=True)
        snn.eval()
        images = images_batch()
        labels = np.zeros(len(images), dtype=int)
        summary = record_energy_profile(
            snn, [(images, labels)], (1, 4, 4), registry=MetricsRegistry()
        )
        assert summary["measured_counts"] is True
        assert summary["snn_total_flops"] > 0

    def test_energy_profile_estimates_without_counting(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        snn.enable_sparse_dispatch(defaults=FORCE_SPARSE)  # count_ops off
        snn.eval()
        images = images_batch()
        labels = np.zeros(len(images), dtype=int)
        summary = record_energy_profile(
            snn, [(images, labels)], (1, 4, 4), registry=MetricsRegistry()
        )
        assert summary["measured_counts"] is False

    def test_fused_prefix_rescale_matches_stepwise(self):
        """The fused engine runs the direct-encoding prefix once per
        forward; _measured_snn_ops rescales it to per-step calls, so
        fused and stepwise runs report identical measured energy."""
        images = images_batch()
        labels = np.zeros(len(images), dtype=int)
        totals = {}
        for mode in ("fused", "stepwise"):
            snn = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
            snn.enable_sparse_dispatch(defaults=FORCE_SPARSE, count_ops=True)
            snn.eval()
            summary = record_energy_profile(
                snn, [(images, labels)], (1, 4, 4), registry=MetricsRegistry()
            )
            assert summary["measured_counts"] is True
            totals[mode] = summary["snn_total_flops"]
        assert totals["fused"] == pytest.approx(totals["stepwise"])
