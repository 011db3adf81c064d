"""Event-driven sparse kernels and activity-adaptive dispatch (PR 8).

Pins the contract from ``repro.tensor.sparse`` + ``repro.snn.dispatch``:
the CSR spike packing round-trips, the gather kernels match the dense
layers to float tolerance across geometries / amplitudes / per-event
values, and a dispatch-routed ``SpikingNetwork`` produces
the same logits and spike counts as the dense engine and the
step-major reference loop, IF and LIF, soft and hard reset,
under injected dead-unit faults and across warm streaming windows.
Crossover calibration must be deterministic under an injected clock and
round-trip through its artefact, and the exact accumulate counter
(``count_accumulates``) must equal the brute-force oracle of
``snn_oracle`` on random small networks under either forced routing
and reach the energy/observability gauges.  Two
paired timing gates keep the dispatcher honest on a converted tiny VGG: on low-activity input the
dispatched pass beats dense, and on a fully dense-routed workload the
dispatcher's bookkeeping costs under 5%.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings

from repro.faults import FaultSpec
from repro.hw.quantization import quantize_array
from repro.nn import Conv2d, Flatten, Linear
from repro.obs.instruments import record_energy_profile
from repro.snn import (
    IFNeuron,
    SpikingNetwork,
    SpikingSequential,
    StepWrapper,
    count_accumulates,
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

from .snn_oracle import (
    ENGINES,
    FORCE_DENSE,
    FORCE_SPARSE,
    GATHER_CONTRACT,
    NEURON_CONFIGS,
    T,
    assert_logits_match,
    brute_force_fanout,
    build_net,
    build_random_net,
    counted_forward,
    images_batch,
    random_images,
    random_nets,
    run_recorded,
    weight_layers,
)

def spike_frame(shape, density, seed=0, amplitude=1.0):
    """Binary frame with exactly ``round(density * size)`` active units."""
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    active = min(total, max(0, int(round(density * total))))
    flat = np.zeros(total)
    if active:
        flat[rng.permutation(total)[:active]] = amplitude
    return flat.reshape(shape)


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
        assert_logits_match(out, dense_forward(layer, frame), GATHER_CONTRACT)

    def test_per_event_values_path(self):
        rng = np.random.default_rng(7)
        layer = Linear(16, 5, rng=rng)
        frame = spike_frame((3, 16), 0.4, seed=7) * (rng.random((3, 16)) + 0.5)
        out = sparse_linear_gather(
            pack_spikes(frame), layer.weight.data, bias=layer.bias.data
        )
        assert_logits_match(out, dense_forward(layer, frame), GATHER_CONTRACT)

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
        assert_logits_match(out, dense_forward(layer, frame), GATHER_CONTRACT)

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
        assert_logits_match(looped, fused, GATHER_CONTRACT)
        assert_logits_match(fused, dense_forward(layer, frame), GATHER_CONTRACT)

    def test_per_event_values_path(self):
        rng = np.random.default_rng(11)
        layer = Conv2d(3, 4, 3, padding=1, bias=True, rng=rng)
        frame = spike_frame((2, 3, 6, 6), 0.15, seed=11)
        frame *= rng.random(frame.shape) + 0.5
        out = sparse_conv2d_gather(
            pack_spikes(frame), layer.weight.data, padding=1,
            bias=layer.bias.data,
        )
        assert_logits_match(out, dense_forward(layer, frame), GATHER_CONTRACT)

    def test_packed_weight_reuse(self):
        rng = np.random.default_rng(12)
        layer = Conv2d(3, 4, 3, padding=1, bias=False, rng=rng)
        packed = pack_conv_weight(layer.weight.data)
        frame = spike_frame((2, 3, 6, 6), 0.1, seed=12)
        out = sparse_conv2d_gather(
            pack_spikes(frame, amplitude=1.0), stride=1, padding=1,
            packed=packed, out_dtype=layer.weight.data.dtype,
        )
        assert_logits_match(out, dense_forward(layer, frame), GATHER_CONTRACT)

    def test_requires_some_weight(self):
        with pytest.raises(ValueError):
            sparse_conv2d_gather(pack_spikes(np.zeros((1, 2, 3, 3))))


# ======================================================================
# Weight quantization keeps the source dtype
# ======================================================================
class TestQuantizationDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantize_array_preserves_dtype(self, dtype):
        with default_dtype(dtype):
            values = np.asarray(
                np.random.default_rng(14).normal(size=(8, 8)), dtype=dtype
            )
            assert quantize_array(values, 8).dtype == np.dtype(dtype)


# ======================================================================
# Dispatch-routed network equivalence
# ======================================================================
class TestDispatchEquivalence:
    @pytest.mark.parametrize("mode", ["fused", "stepwise"])
    @pytest.mark.parametrize("neuron_fn", NEURON_CONFIGS)
    def test_forced_sparse_matches_dense(self, neuron_fn, mode):
        images = images_batch()
        dense = build_net(neuron_fn, mode)
        ref_logits, ref_spikes = run_recorded(dense, images)

        routed = build_net(neuron_fn, mode)
        dispatch = routed.enable_sparse_dispatch(
            crossover=CrossoverTable(defaults=FORCE_SPARSE)
        )
        logits, spikes = run_recorded(routed, images)

        assert_logits_match(logits, ref_logits, GATHER_CONTRACT)
        assert spikes == ref_spikes
        stats = dispatch.layer_stats()
        assert stats, "dispatcher saw no weight layers"
        assert all(st.dense_runs == 0 for st in stats)
        assert sum(st.sparse_runs for st in stats) > 0

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
        routed.enable_sparse_dispatch(crossover=CrossoverTable(defaults=FORCE_SPARSE))
        with routed.inject_faults(spec):
            logits, spikes = run_recorded(routed, images)
        assert_logits_match(logits, ref_logits, GATHER_CONTRACT)
        assert spikes == ref_spikes


class TestDispatchRouting:
    def test_threshold_picks_path_per_layer(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "fused")
        dispatch = snn.enable_sparse_dispatch(
            crossover=CrossoverTable(defaults={"conv": 1.1, "linear": -1.0})
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
        snn.enable_sparse_dispatch(crossover=CrossoverTable(defaults=FORCE_DENSE))
        logits, _ = run_recorded(snn, images)
        np.testing.assert_array_equal(logits, ref)

    def test_training_and_grad_passes_bypass_dispatch(self):
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        dispatch = snn.enable_sparse_dispatch(
            crossover=CrossoverTable(defaults=FORCE_SPARSE)
        )
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
        snn.enable_sparse_dispatch(crossover=CrossoverTable(defaults=FORCE_SPARSE))
        run_recorded(snn, images)
        snn.disable_sparse_dispatch()
        assert snn.sparse_dispatch is None
        logits, _ = run_recorded(snn, images)
        np.testing.assert_array_equal(logits, ref)

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_silent_frame_outputs_bias_unpacked(self, kind, monkeypatch):
        """A sparse-routed frame without events is neither packed nor
        gathered: its output is the bias, bitwise the dense layer's."""
        rng = np.random.default_rng(18)
        if kind == "conv":
            layer = Conv2d(3, 4, 3, stride=2, padding=1, bias=True, rng=rng)
            frame = np.zeros((2, 3, 5, 5))
        else:
            layer = Linear(12, 4, bias=True, rng=rng)
            frame = np.zeros((2, 12))
        layer.bias.data += rng.normal(size=4)
        dispatch = SparseDispatch(crossover=CrossoverTable(defaults=FORCE_SPARSE))

        def no_pack(*args, **kwargs):
            raise AssertionError("packed a silent frame")

        monkeypatch.setattr("repro.snn.dispatch.pack_spikes", no_pack)
        out = dispatch.maybe_run(layer, Tensor(frame))
        np.testing.assert_array_equal(out.data, dense_forward(layer, frame))
        assert dispatch.layer_stats()[0].sparse_runs == 1

    def test_invalidate_cache_after_weight_mutation(self):
        rng = np.random.default_rng(16)
        layer = Linear(12, 4, bias=False, rng=rng)
        dispatch = SparseDispatch(crossover=CrossoverTable(defaults=FORCE_SPARSE))
        frame = spike_frame((2, 12), 0.25, seed=16)
        x = Tensor(frame)
        first = dispatch.maybe_run(layer, x)
        assert first is not None
        layer.weight.data *= 2.0
        dispatch.invalidate_cache()
        second = dispatch.maybe_run(layer, x)
        assert_logits_match(second.data, dense_forward(layer, frame), GATHER_CONTRACT)

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
    def test_matches_brute_force_oracle(self):
        """Dispatcher op accounting == the brute-force oracle, layer by
        layer (reference loop: every layer runs per step)."""
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        _, measured, expected = counted_forward(snn, images_batch(), FORCE_SPARSE)
        assert measured == expected

    @given(spec=random_nets())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_oracle_property(self, spec):
        """Random small nets (conv/linear stems, pool, residual blocks),
        IF/LIF, soft/hard reset, T in 1..5 and activity from all-zero
        images to saturation: in the engine and the reference loop under
        both forced routings, per-image events and accumulates equal the
        oracle exactly, and the logits stay within the gather contract
        of the dense reference loop."""
        images = random_images(spec)
        reference, _ = run_recorded(build_random_net(spec, "stepwise"), images)
        for mode in ENGINES:
            for routing in (FORCE_SPARSE, FORCE_DENSE):
                snn = build_random_net(spec, mode)
                logits, measured, expected = counted_forward(snn, images, routing)
                assert measured == expected, (mode, routing)
                assert_logits_match(logits, reference, GATHER_CONTRACT)

    @pytest.mark.parametrize("mode", ["fused", "stepwise"])
    @pytest.mark.parametrize("zero_fraction", [1.0, 0.2], ids=["zero", "partly-zero"])
    def test_input_layer_counts_every_element(self, mode, zero_fraction):
        """The first weight layer, which sees the analog image, pays for
        every input element at every step, zero pixels included: its fan-out
        total x T per image, routing left to the pixels' density."""
        images = images_batch()
        images[np.random.default_rng(4).random(images.shape) < zero_fraction] = 0
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
        _, measured, expected = counted_forward(snn, images, FORCE_SPARSE)
        assert measured == expected
        first_conv = weight_layers(snn)[0]
        fanout = brute_force_fanout(first_conv, images.shape[1:])
        assert measured[0] == (fanout.size * T, fanout.sum() * T)

    def test_path_independent(self):
        """Counting is about what the hardware would pay, not which
        simulator path ran — on one net, dense-forced and sparse-forced
        routing count the same."""
        images = images_batch()
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        totals = []
        for routing, path in ((FORCE_SPARSE, "sparse"), (FORCE_DENSE, "dense")):
            dispatch = snn.enable_sparse_dispatch(
                crossover=CrossoverTable(defaults=routing)
            )
            with count_accumulates(snn) as counts:
                run_recorded(snn, images)
            assert all(st.calls == getattr(st, f"{path}_runs")
                       for st in dispatch.layer_stats())
            totals.append((counts.events, counts.accumulates))
        assert totals[0] == totals[1]

    def test_linear_accumulates_by_hand(self):
        """A one-``Linear`` network: its layer sees the analog input, so
        every input element is an event at every step, and
        each event reaches all ``out_features`` outputs."""
        rng = np.random.default_rng(18)
        snn = SpikingNetwork(
            SpikingSequential(StepWrapper(Linear(10, 6, bias=False, rng=rng))),
            timesteps=T,
        )
        frame = spike_frame((2, 10), 0.3, seed=18)  # 6 nonzero inputs
        with count_accumulates(snn) as counts:
            run_recorded(snn, frame)
        assert counts.events == [frame.size * T]
        assert counts.accumulates == [counts.events[0] * 6]
        assert counts.rows == [len(frame) * T]
        assert counts.per_inference(counts.events) == [10 * T]


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
        reference, _ = run_recorded(ref, images_batch())
        assert_logits_match(logits, reference, GATHER_CONTRACT)

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
        probe = snn.enable_sparse_dispatch(crossover=CROSSOVER_PATH)
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
# Observability: exact accumulate gauges
# ======================================================================
class TestDispatchObservability:
    @pytest.mark.smoke
    def test_observed_dispatched_run(self, converted_tiny_vgg, tmp_path):
        """An observed, dispatched run of the converted tiny VGG: the
        exact accumulates reach metrics.json per weight layer, and two
        such runs diff clean."""
        from repro.obs import observe
        from repro.obs.diff import diff_run_dirs
        from repro.obs.report import load_run

        snn, images = converted_tiny_vgg
        quiet = images * 0.25
        labels = np.random.default_rng(0).integers(0, 10, len(images))
        run_dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for run_dir in run_dirs:
            snn.enable_sparse_dispatch(crossover=CROSSOVER_PATH)
            with observe(run_dir, seed=0):
                summary = record_energy_profile(snn, [(quiet, labels)], (3, 8, 8))
            gauges = load_run(run_dir).metrics["gauges"]
            accumulates = [
                gauges[f"energy.accumulates{{layer={i}}}"]["value"]
                for i in range(len(weight_layers(snn)))
            ]
            assert accumulates[0] > 0
            assert sum(accumulates) == summary["snn_accumulates"]

        diff = diff_run_dirs(*run_dirs)
        assert diff.ok, diff.render()

    def test_energy_profile_uses_measured_counts(self):
        """The energy profile's exact accumulates equal the brute-force
        oracle's total on a twin network."""
        images = images_batch()
        labels = np.zeros(len(images), dtype=int)
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        snn.enable_sparse_dispatch(crossover=CrossoverTable(defaults=FORCE_SPARSE))
        summary = record_energy_profile(snn, [(images, labels)], (1, 4, 4))
        twin = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        _, _, expected = counted_forward(twin, images, FORCE_SPARSE)
        assert summary["snn_accumulates"] == sum(acc for _, acc in expected)
        assert summary["snn_total_flops"] > 0

    def test_energy_profile_estimates_without_counting(self):
        """``snn_ops`` and the totals stay the paper's rate estimate:
        counting in the same pass does not replace them."""
        from repro.energy import (
            measure_spiking_activity,
            snn_layer_flops,
            snn_total_flops,
        )

        images = images_batch()
        batches = [(images, np.zeros(len(images), dtype=int))]
        snn = build_net(lambda: IFNeuron(v_threshold=0.6), "stepwise")
        summary = record_energy_profile(snn, batches, (1, 4, 4))
        rates = measure_spiking_activity(snn, batches).rates_by_neuron_id(snn)
        estimate = snn_total_flops(snn_layer_flops(snn, (1, 4, 4), rates))
        assert summary["snn_total_flops"] == estimate

    def test_fused_prefix_rescale_matches_stepwise(self):
        """The engine runs the direct-encoding prefix once per forward
        but fires its taps per time block, so it reports the exact
        accumulates of the step-major reference loop."""
        images = images_batch()
        labels = np.zeros(len(images), dtype=int)
        totals = {}
        for mode in ("fused", "stepwise"):
            snn = build_net(lambda: IFNeuron(v_threshold=0.6), mode)
            snn.enable_sparse_dispatch(
                crossover=CrossoverTable(defaults=FORCE_SPARSE)
            )
            summary = record_energy_profile(snn, [(images, labels)], (1, 4, 4))
            assert summary["snn_accumulates"] > 0
            totals[mode] = summary["snn_accumulates"]
        assert totals["fused"] == totals["stepwise"]
