"""Fault-injection subsystem: specs, injector, telemetry, sweep."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.conversion import ConversionConfig, convert_dnn_to_snn
from repro.data import DataLoader
from repro.faults import (
    FAULTS_FILENAME,
    FaultSpec,
    NeuronFaults,
    TransmissionFaults,
    WeightFaults,
    inject_faults,
)
from repro.models import vgg11
from repro.tensor import no_grad

from .snn_oracle import engine_of


@pytest.fixture(scope="module")
def snn_setup():
    rng = np.random.default_rng(3)
    model = vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(0),
    )
    loader = DataLoader(rng.random((8, 3, 8, 8)), rng.integers(0, 5, 8), 8)
    snn = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2)).snn
    snn.eval()
    images = rng.random((4, 3, 8, 8))
    return model, snn, images


def _forward(snn, images, mode):
    """No-grad logits from the engine (``"fused"``) or the step-major
    reference loop (``"stepwise"``)."""
    with engine_of(snn, mode), no_grad():
        return snn(images).data.copy()


class TestFaultSpec:
    def test_null_by_default(self):
        assert FaultSpec().is_null

    def test_component_validation(self):
        with pytest.raises(ValueError):
            WeightFaults(prune_rate=1.5)
        with pytest.raises(ValueError):
            WeightFaults(quant_bits=1)
        with pytest.raises(ValueError):
            NeuronFaults(dead_rate=-0.1)
        with pytest.raises(ValueError):
            TransmissionFaults(spike_drop_rate=2.0)

    def test_dict_roundtrip(self):
        spec = FaultSpec(
            weight=WeightFaults(quant_bits=4, prune_rate=0.1),
            neuron=NeuronFaults(dead_rate=0.2),
            transmission=TransmissionFaults(frame_drop_rate=0.1),
            seed=11,
        )
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_single_knob_constructors(self):
        assert FaultSpec.quantization(4).weight.quant_bits == 4
        assert FaultSpec.dead_neurons(0.3).neuron.dead_rate == 0.3
        assert FaultSpec.frame_drop(0.2).transmission.frame_drop_rate == 0.2
        assert not FaultSpec.pruning(0.1).is_null

    def test_layers_normalised_to_sorted_tuple(self):
        spec = WeightFaults(prune_rate=0.1, layers=[3, 1, 3, 0])
        assert spec.layers == (0, 1, 3)
        assert NeuronFaults(dead_rate=0.1, layers=None).layers is None

    def test_layers_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            WeightFaults(prune_rate=0.1, layers=(-1,))
        with pytest.raises(ValueError, match="layer indices"):
            NeuronFaults(dead_rate=0.1, layers=("conv1",))
        with pytest.raises(ValueError, match="layer indices"):
            TransmissionFaults(spike_drop_rate=0.1, layers=(True,))


class TestLayerTargeting:
    def test_nonexistent_weight_layer_named_in_error(self, snn_setup):
        from repro.nn import Conv2d, Linear

        model, _, _ = snn_setup
        count = sum(
            1 for _, m in model.named_modules()
            if isinstance(m, (Conv2d, Linear))
        )
        spec = FaultSpec(
            weight=WeightFaults(prune_rate=0.5, layers=(count + 5,))
        )
        with pytest.raises(ValueError) as excinfo:
            inject_faults(model, spec).__enter__()
        message = str(excinfo.value)
        assert f"layer {count + 5}" in message
        assert "valid indices" in message

    def test_nonexistent_neuron_layer_named_in_error(self, snn_setup):
        _, snn, _ = snn_setup
        spec = FaultSpec(neuron=NeuronFaults(dead_rate=0.5, layers=(99,)))
        with pytest.raises(ValueError, match="layer 99"):
            inject_faults(snn, spec).__enter__()
        spec = FaultSpec(
            transmission=TransmissionFaults(spike_drop_rate=0.5, layers=(42,))
        )
        with pytest.raises(ValueError, match="layer 42"):
            inject_faults(snn, spec).__enter__()

    def test_validation_happens_before_any_mutation(self, snn_setup):
        model, _, _ = snn_setup
        before = [p.data.copy() for p in model.parameters()]
        spec = FaultSpec(
            weight=WeightFaults(prune_rate=1.0, layers=(0, 999))
        )
        with pytest.raises(ValueError):
            inject_faults(model, spec).__enter__()
        for param, stored in zip(model.parameters(), before):
            assert np.array_equal(param.data, stored)

    def test_targeted_layers_restrict_injection(self, snn_setup):
        from repro.nn import Conv2d, Linear

        model, _, _ = snn_setup
        weighted = [
            m for _, m in model.named_modules()
            if isinstance(m, (Conv2d, Linear))
        ]
        before = [m.weight.data.copy() for m in weighted]
        spec = FaultSpec(
            weight=WeightFaults(prune_rate=0.9, layers=(0,)), seed=3
        )
        with inject_faults(model, spec):
            assert not np.array_equal(weighted[0].weight.data, before[0])
            for module, stored in zip(weighted[1:], before[1:]):
                assert np.array_equal(module.weight.data, stored)
        for module, stored in zip(weighted, before):
            assert np.array_equal(module.weight.data, stored)


class TestInjector:
    @pytest.mark.smoke
    def test_null_spec_is_bitwise_identity(self, snn_setup):
        _, snn, images = snn_setup
        for mode in ("fused", "stepwise"):
            clean = _forward(snn, images, mode)
            with inject_faults(snn, FaultSpec()):
                faulted = _forward(snn, images, mode)
            assert np.array_equal(clean, faulted)

    def test_composite_faults_mode_equivalent(self, snn_setup):
        _, snn, images = snn_setup
        spec = FaultSpec(
            weight=WeightFaults(quant_bits=4, prune_rate=0.1),
            neuron=NeuronFaults(
                dead_rate=0.2, threshold_jitter=0.1, leak_drift=0.05
            ),
            transmission=TransmissionFaults(
                spike_drop_rate=0.1, frame_drop_rate=0.1
            ),
            seed=11,
        )
        with inject_faults(snn, spec):
            fused = _forward(snn, images, "fused")
        with inject_faults(snn, spec):
            stepwise = _forward(snn, images, "stepwise")
        np.testing.assert_allclose(fused, stepwise, atol=1e-10)

    def test_exact_restore_on_exit(self, snn_setup):
        _, snn, images = snn_setup
        clean = _forward(snn, images, "fused")
        spec = FaultSpec(
            weight=WeightFaults(stuck_zero_rate=0.3, sign_flip_rate=0.1),
            neuron=NeuronFaults(dead_rate=0.5, threshold_jitter=0.3),
            transmission=TransmissionFaults(spike_drop_rate=0.5),
            seed=5,
        )
        with inject_faults(snn, spec):
            _forward(snn, images, "fused")
        assert np.array_equal(clean, _forward(snn, images, "fused"))
        # no lingering taps or dead-unit hooks
        for module in snn.modules():
            assert module._taps == ()
        for neuron in snn.spiking_neurons():
            assert neuron._unit_fault_fn is None

    def test_seed_determinism(self, snn_setup):
        _, snn, images = snn_setup
        spec = FaultSpec.spike_drop(0.2, seed=7)
        with inject_faults(snn, spec):
            first = _forward(snn, images, "fused")
        with inject_faults(snn, spec):
            second = _forward(snn, images, "fused")
        assert np.array_equal(first, second)
        with inject_faults(snn, spec.with_seed(8)):
            other_seed = _forward(snn, images, "fused")
        assert not np.array_equal(first, other_seed)

    def test_weight_faults_apply_to_plain_dnn(self, snn_setup, rng):
        model, _, _ = snn_setup
        x = rng.random((2, 3, 8, 8))
        model.eval()
        from repro.tensor import Tensor

        with no_grad():
            clean = model(Tensor(x)).data.copy()
            with inject_faults(model, FaultSpec.pruning(0.5, seed=1)) as s:
                pruned = model(Tensor(x)).data.copy()
            restored = model(Tensor(x)).data
        assert s.summary()["weights_pruned"] > 0
        assert not np.array_equal(clean, pruned)
        assert np.array_equal(clean, restored)

    def test_spiking_faults_rejected_on_plain_dnn(self, snn_setup):
        model, _, _ = snn_setup
        with pytest.raises(ValueError, match="SpikingNetwork"):
            inject_faults(model, FaultSpec.dead_neurons(0.1))

    def test_dead_units_survive_reset_state(self, snn_setup):
        _, snn, images = snn_setup
        with inject_faults(snn, FaultSpec.dead_neurons(0.4, seed=2)):
            first = _forward(snn, images, "stepwise")
            snn.reset_state()
            second = _forward(snn, images, "stepwise")
        assert np.array_equal(first, second)

    def test_summary_counters(self, snn_setup):
        _, snn, images = snn_setup
        spec = FaultSpec(
            weight=WeightFaults(prune_rate=0.2),
            transmission=TransmissionFaults(frame_drop_rate=0.5),
            seed=4,
        )
        with inject_faults(snn, spec) as session:
            _forward(snn, images, "fused")
        summary = session.summary()
        assert summary["weights_pruned"] > 0
        assert summary["frames_dropped"] > 0

    def test_network_helper_method(self, snn_setup):
        _, snn, images = snn_setup
        clean = _forward(snn, images, "fused")
        with snn.inject_faults(FaultSpec.pruning(0.3, seed=9)):
            faulted = _forward(snn, images, "fused")
        assert not np.array_equal(clean, faulted)


class TestTelemetry:
    def test_records_and_jsonl(self, snn_setup, tmp_path):
        _, snn, images = snn_setup
        with obs.observe(str(tmp_path)):
            with inject_faults(snn, FaultSpec.pruning(0.2, seed=1)) as session:
                _forward(snn, images, "fused")
        telemetry = session.telemetry
        kinds = {r["fault"] for r in telemetry.records}
        assert "weight" in kinds and "session_end" in kinds
        path = tmp_path / FAULTS_FILENAME
        assert path.exists() and path.stat().st_size > 0

    def test_explicit_registry_records_without_obs(self, snn_setup):
        _, snn, images = snn_setup
        with obs.observe():
            with inject_faults(snn, FaultSpec.pruning(0.2, seed=1)):
                _forward(snn, images, "fused")
        registry = obs.get_registry()
        counters = registry.snapshot()["counters"]
        assert any(k.startswith("faults.weights_pruned") for k in counters)


class TestFaultSweep:
    def test_build_fault_spec_levels(self):
        from repro.experiments import build_fault_spec

        assert build_fault_spec("quantization", None).is_null
        assert build_fault_spec("prune", 0.0).is_null
        spec = build_fault_spec("quantization", 4, seed=2)
        assert spec.weight.quant_bits == 4 and spec.seed == 2
        with pytest.raises(KeyError, match="unknown fault kind"):
            build_fault_spec("cosmic_rays", 0.5)

    def test_sweep_is_deterministic(self, tiny_config):
        from repro.experiments import run_fault_sweep

        kwargs = dict(
            arch=tiny_config.arch,
            dataset=tiny_config.dataset,
            scale_name="tiny",
            timesteps=tiny_config.timesteps,
            fault_kinds=["prune", "spike_drop"],
            ladders={"prune": (0.0, 0.3), "spike_drop": (0.0, 0.3)},
            seed=tiny_config.seed,
        )
        first = run_fault_sweep(**kwargs)
        second = run_fault_sweep(**kwargs)
        assert first == second
        by_kind = {c["fault"]: c for c in first["curves"]}
        # level 0 is the clean baseline, shared across kinds
        assert by_kind["prune"]["finetuned"][0] == (
            by_kind["spike_drop"]["finetuned"][0]
        )
        # spiking-only fault: no DNN curve
        assert by_kind["spike_drop"]["dnn"] is None
        assert by_kind["prune"]["dnn"] is not None

    def test_render_and_report_section(self, tiny_config):
        from repro.experiments import render_fault_sweep, run_fault_sweep
        from repro.experiments.report_md import _faults_section

        result = run_fault_sweep(
            arch=tiny_config.arch,
            dataset=tiny_config.dataset,
            scale_name="tiny",
            timesteps=tiny_config.timesteps,
            fault_kinds=["quantization"],
            ladders={"quantization": (None, 2)},
            seed=tiny_config.seed,
        )
        text = render_fault_sweep(result)
        assert "quantization" in text and "fp (none)" in text
        section = _faults_section({"fault_sweep": result})
        assert section.startswith("## Fault tolerance")
        assert "2 bits" in section
