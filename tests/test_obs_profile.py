"""Op-level profiler: from_op hook, per-layer attribution, artefacts,
hot-path reporting, report/diff integration, dtype-accurate memory,
and the paired timing gate on the disabled path."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.nn import Linear
from repro.obs import health as obs_health
from repro.obs import profile as obs_profile
from repro.obs import trace
from repro.obs.__main__ import main as obs_main
from repro.obs.diff import diff_run_dirs, metric_direction
from repro.obs.profile import (
    NULL_REGION,
    PROFILE_FILENAME,
    PROFILE_SCHEMA,
    SUMMARY_FILENAME,
    UNATTRIBUTED,
    OpProfiler,
    aggregate,
    chrome_trace,
)
from repro.obs.registry import RunRegistry
from repro.obs.report import load_run, render_report
from repro.snn import network as snn_network
from repro.snn import SpikingNetwork, SpikingNeuron, SpikingSequential, StepWrapper
from repro.tensor import Tensor, no_grad
from repro.tensor import tensor as tensor_mod


def _reset_obs():
    obs.shutdown()
    obs.reset_registry()
    obs_health.uninstall()
    trace.reset()
    obs.state().events.clear()
    obs.state().spans.clear()
    snn_network.set_layer_probe(None)
    # Drain any observer a failed test left behind (restores the
    # pristine from_op once the list empties).
    for observer in list(tensor_mod._OP_OBSERVERS):
        tensor_mod.remove_op_observer(observer)


@pytest.fixture(autouse=True)
def clean_obs():
    _reset_obs()
    yield
    _reset_obs()


@pytest.fixture
def registry_root(tmp_path, monkeypatch):
    root = tmp_path / "registry"
    monkeypatch.setenv("REPRO_RUNS_ROOT", str(root))
    return str(root)


def tiny_snn(timesteps=2, rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    body = SpikingSequential(
        StepWrapper(Linear(4, 6, rng=rng)),
        SpikingNeuron(v_threshold=0.5, trainable=False),
        StepWrapper(Linear(6, 3, rng=rng)),
        SpikingNeuron(v_threshold=0.5, trainable=False),
    )
    return SpikingNetwork(body, timesteps=timesteps)


def profiled_forward(timesteps=2):
    """Profile one forward pass of the tiny SNN; returns the profiler."""
    snn = tiny_snn(timesteps=timesteps)
    snn.eval()
    x = np.random.default_rng(1).random((4, 4))
    with OpProfiler() as profiler:
        with no_grad():
            snn(x)
    return profiler


# ----------------------------------------------------------------------
# The from_op observer hook
# ----------------------------------------------------------------------
class TestOpObserverHook:
    def test_add_remove_restores_pristine_from_op(self):
        pristine = Tensor.from_op
        seen = []

        def observer(out, name):
            seen.append(name)

        tensor_mod.add_op_observer(observer)
        assert Tensor.from_op is not pristine
        (Tensor(np.ones(3), requires_grad=True) * 2.0).sum()
        assert "mul" in seen and "sum" in seen
        tensor_mod.remove_op_observer(observer)
        assert Tensor.from_op is pristine

    def test_remove_unknown_observer_is_harmless(self):
        tensor_mod.remove_op_observer(lambda out, name: None)
        assert Tensor.from_op is tensor_mod._PRISTINE_FROM_OP

    def test_observed_op_result_unchanged(self):
        tensor_mod.add_op_observer(lambda out, name: None)
        try:
            a = Tensor(np.arange(3.0), requires_grad=True)
            out = (a * 3.0).sum()
            out.backward()
            assert float(out.data) == pytest.approx(9.0)
            assert np.allclose(a.grad, 3.0)
        finally:
            tensor_mod.remove_op_observer(
                tensor_mod._OP_OBSERVERS[0]
            )


# ----------------------------------------------------------------------
# OpProfiler recording & attribution
# ----------------------------------------------------------------------
class TestOpProfiler:
    def test_records_shape_bytes_dtype(self):
        from repro.tensor.tensor import default_dtype

        with OpProfiler() as profiler:
            with default_dtype(np.float32):
                x = Tensor(np.ones((2, 3)), requires_grad=True)
                (x * 2.0).sum()
        ops = [r["op"] for r in profiler.records]
        assert "mul" in ops and "sum" in ops
        mul = next(r for r in profiler.records if r["op"] == "mul")
        assert mul["shape"] == [2, 3]
        assert mul["bytes"] == 2 * 3 * 4
        assert mul["dtype"] == "float32"
        assert all(r["dt_s"] >= 0.0 for r in profiler.records)

    def test_nested_profilers_rejected(self):
        with OpProfiler():
            with pytest.raises(RuntimeError):
                OpProfiler().__enter__()

    def test_region_without_profiler_is_null(self):
        assert obs_profile.region("anything") is NULL_REGION
        with obs_profile.region("anything"):
            pass  # no-op, no error

    def test_layer_labels_fused_and_stepwise(self):
        # The reference loop lives in the tests and is not profiled; the
        # engine labels every layer.
        profiler = profiled_forward()
        layers = {r.get("layer") for r in profiler.records if "layer" in r}
        assert any(
            label and label.startswith("L0:") for label in layers
        ), f"no L0 label: {layers}"

    def test_probe_uninstalled_after_exit(self):
        profiled_forward()
        assert snn_network._LAYER_PROBE is None
        assert Tensor.from_op is tensor_mod._PRISTINE_FROM_OP

    def test_layer_totals_cover_forward_wall_time(self):
        import time as _time

        snn = tiny_snn()
        snn.eval()
        x = np.random.default_rng(1).random((8, 4))
        with no_grad():
            snn(x)  # warm caches outside the measured window
        for _ in range(3):
            with OpProfiler() as profiler:
                t0 = _time.perf_counter()
                with no_grad():
                    snn(x)
                wall = _time.perf_counter() - t0
            summary = profiler.aggregate()
            total = sum(
                entry["total_s"] for entry in summary["by_layer"].values()
            )
            if total >= 0.9 * wall:
                break
        assert total >= 0.9 * wall

    def test_record_cap_counts_dropped(self):
        with OpProfiler(max_records=2) as profiler:
            x = Tensor(np.ones(4), requires_grad=True)
            ((x * 2.0) * 3.0).sum()
        assert len(profiler.records) == 2
        assert profiler.dropped >= 1
        assert profiler.aggregate()["dropped"] == profiler.dropped

    def test_span_attribution(self):
        obs.configure()  # in-memory run so spans are live
        with OpProfiler() as profiler:
            with trace.span("unit_span"):
                Tensor(np.ones(3), requires_grad=True).sum()
        assert any(r.get("span") == "unit_span" for r in profiler.records)


# ----------------------------------------------------------------------
# Aggregation & Chrome trace
# ----------------------------------------------------------------------
class TestAggregate:
    RECORDS = [
        {"kind": "op", "op": "mul", "dt_s": 0.002, "t_s": 0.002,
         "bytes": 10, "layer": "L0:Linear"},
        {"kind": "op", "op": "mul", "dt_s": 0.004, "t_s": 0.006,
         "bytes": 20, "layer": "L0:Linear"},
        {"kind": "op", "op": "sum", "dt_s": 0.008, "t_s": 0.014, "bytes": 8},
        {"kind": "other"},
    ]

    def test_tables_and_median(self):
        summary = aggregate(self.RECORDS)
        assert summary["schema"] == PROFILE_SCHEMA
        assert summary["ops"] == 3
        assert summary["total_s"] == pytest.approx(0.014)
        assert summary["bytes_total"] == 38
        mul = summary["by_op"]["mul"]
        assert mul["count"] == 2
        assert mul["median_s"] == pytest.approx(0.003)
        assert mul["pct"] == pytest.approx(100.0 * 0.006 / 0.014)
        assert summary["by_layer"][UNATTRIBUTED]["count"] == 1
        # top is ranked by total time, descending
        assert summary["top"][0]["op"] == "sum"

    def test_deterministic_key_order(self):
        summary = aggregate(self.RECORDS)
        assert list(summary["by_op"]) == sorted(summary["by_op"])
        assert list(summary["by_layer"]) == sorted(summary["by_layer"])

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self.RECORDS)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        first = xs[0]
        assert first["ts"] == pytest.approx(0.0)
        assert first["dur"] == pytest.approx(2000.0)
        assert first["args"]["layer"] == "L0:Linear"
        json.loads(json.dumps(doc))  # round-trips


# ----------------------------------------------------------------------
# Observed-run session artefacts
# ----------------------------------------------------------------------
class TestProfiledRun:
    def _profiled_run(self, tmp_path, name="run_p"):
        run_dir = tmp_path / name
        with obs.observe(str(run_dir), profile=True, arch="tiny",
                         timesteps=2, seed=0):
            run_id = obs.state().run_id
            snn = tiny_snn()
            snn.eval()
            with no_grad():
                snn(np.random.default_rng(1).random((4, 4)))
        return str(run_dir), run_id

    def test_profile_requires_run_dir(self):
        with pytest.raises(ValueError):
            obs.configure(profile=True)

    def test_artefacts_registry_and_report(self, tmp_path, registry_root):
        run_dir, run_id = self._profiled_run(tmp_path)
        assert os.path.getsize(os.path.join(run_dir, PROFILE_FILENAME)) > 0
        summary = load_run(run_dir).profile_summary
        assert summary["schema"] == PROFILE_SCHEMA
        assert any(k != UNATTRIBUTED for k in summary["by_layer"])
        entry = RunRegistry().get(run_id)
        assert PROFILE_FILENAME in entry["artifacts"]
        assert SUMMARY_FILENAME in entry["artifacts"]
        data = load_run(run_dir)
        assert data.profile and data.profile_summary
        report = render_report(data)
        assert "## Hot ops" in report
        assert "Per-layer attribution" in report

    def test_unprofiled_run_has_no_profile_warning(self, tmp_path,
                                                   registry_root):
        run_dir = tmp_path / "plain"
        with obs.observe(str(run_dir)):
            pass
        data = load_run(str(run_dir))
        assert not any("profile" in w for w in data.warnings)
        assert "## Hot ops" not in render_report(data)

    def test_cli_tables_json_and_chrome_trace(self, tmp_path, registry_root,
                                              capsys):
        run_dir, _ = self._profiled_run(tmp_path)
        assert obs_main(["profile", run_dir]) == 0
        out = capsys.readouterr().out
        assert "## Hot ops" in out and "### Per-layer attribution" in out
        assert obs_main(["profile", run_dir, "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["schema"] == PROFILE_SCHEMA
        trace_out = str(tmp_path / "chrome.json")
        assert obs_main(
            ["profile", run_dir, "--chrome-trace", trace_out]
        ) == 0
        capsys.readouterr()
        with open(trace_out, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
        assert doc["traceEvents"]

    def test_cli_errors_without_profile(self, tmp_path):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        with pytest.raises(SystemExit):
            obs_profile.main([str(run_dir)])

    def test_self_diff_clean_and_skip_gated(self, tmp_path, registry_root):
        dir_a, _ = self._profiled_run(tmp_path, "run_a")
        dir_b, _ = self._profiled_run(tmp_path, "run_b")
        assert metric_direction("profile:op.mul.total_s") == "skip"
        assert metric_direction("profile:layer.L0:Linear.total_s") == "skip"
        diff = diff_run_dirs(dir_a, dir_b)
        assert diff.ok, diff.render()
        profile_series = [
            d for d in diff.deltas if d.name.startswith("profile:")
        ]
        assert profile_series  # aligned, informational

    def test_degraded_torn_tail_and_absence(self, tmp_path, registry_root):
        run_dir, _ = self._profiled_run(tmp_path, "run_torn")
        path = os.path.join(run_dir, PROFILE_FILENAME)
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"kind": "op", "op": "torn')  # no newline, invalid
        data = load_run(run_dir)
        assert data.profile  # intact lines survive
        assert any("profile.jsonl" in w for w in data.warnings)
        assert "## Hot ops" in render_report(data)
        renders = [render_report(load_run(run_dir)) for _ in range(2)]
        assert renders[0] == renders[1]
        # Absent profile: the report degrades silently.
        os.remove(path)
        os.remove(os.path.join(run_dir, SUMMARY_FILENAME))
        data = load_run(run_dir)
        assert not any("profile.jsonl" in w for w in data.warnings)
        assert "## Hot ops" not in render_report(data)

    def test_cli_carries_persisted_dropped_count(self, tmp_path,
                                                 registry_root, capsys):
        """The CLI reads the run like the report: the persisted summary's
        dropped count (never written to profile.jsonl) is shown."""
        run_dir, _ = self._profiled_run(tmp_path, "run_capped")
        path = os.path.join(run_dir, SUMMARY_FILENAME)
        with open(path, "r", encoding="utf-8") as fp:
            summary = json.load(fp)
        summary["dropped"] = 5
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(summary, fp)
        dropped_line = "> ⚠ 5 op event(s) dropped past the profiler's record cap"
        assert dropped_line in render_report(load_run(run_dir))
        assert obs_main(["profile", run_dir]) == 0
        assert dropped_line in capsys.readouterr().out
        assert obs_main(["profile", run_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dropped"] == 5


# ----------------------------------------------------------------------
# dtype-accurate memory metering (GraphMemoryMeter satellite)
# ----------------------------------------------------------------------
class TestDtypeAccurateMemory:
    def test_float32_graph_bytes_not_double_counted(self):
        from repro.profiling.memory import GraphMemoryMeter
        from repro.tensor.tensor import default_dtype

        with GraphMemoryMeter() as meter, default_dtype(np.float32):
            x = Tensor(np.ones((4, 4)), requires_grad=True)
            x * 2.0
        assert meter.tensors_created == 1
        assert meter.bytes_allocated == 4 * 4 * 4  # float32, not 8-byte

    def test_float64_graph_bytes(self):
        from repro.profiling.memory import GraphMemoryMeter

        with GraphMemoryMeter() as meter:
            x = Tensor(np.ones((2, 8)), requires_grad=True)
            x * 2.0
        assert meter.bytes_allocated == 2 * 8 * 8


# ----------------------------------------------------------------------
# Integration flags & the disabled-path gate
# ----------------------------------------------------------------------
class TestIntegration:
    def test_experiments_profile_requires_trace(self, capsys):
        from repro.experiments.__main__ import main as exp_main

        with pytest.raises(SystemExit):
            exp_main(["table1", "--profile"])
        assert "--profile requires --trace" in capsys.readouterr().err

    def test_disabled_profiler_costs_nothing(self, converted_tiny_vgg):
        """With no profiler entered the pristine ``from_op`` is installed,
        so instrumented code pays nothing: a T=2 forward times within 5%
        of itself measured before a profiled pass ran in between (which
        proves the un-patch really restores the fast path)."""
        from repro.profiling import time_callable

        snn, images = converted_tiny_vgg

        def run():
            with no_grad():
                return snn(images)

        assert run().shape == (16, 10)
        pristine = Tensor.from_op
        # Tolerance: 5% relative plus a 0.1 ms absolute floor, retried a
        # few times because two back-to-back minima on a busy host jitter.
        for attempt in range(3):
            before = time_callable(run, repeats=9, warmup=2)
            with OpProfiler() as profiler:
                run()
            assert profiler.records, "profiled pass recorded no ops"
            assert Tensor.from_op is pristine, (
                "OpProfiler exit did not restore the pristine Tensor.from_op"
            )
            after = time_callable(run, repeats=9, warmup=2)
            if after.minimum <= before.minimum * 1.05 + 1e-4:
                break
        else:
            raise AssertionError(
                f"disabled-path overhead gate failed: "
                f"{after.minimum * 1e3:.3f} ms after vs "
                f"{before.minimum * 1e3:.3f} ms before (> 5% + 0.1 ms)"
            )

    def test_trainer_regions_attributed(self):
        from repro.train import DNNTrainConfig, DNNTrainer
        from repro.nn import Flatten, Sequential, ThresholdReLU

        rng = np.random.default_rng(0)
        model = Sequential(
            Flatten(), Linear(8, 8, rng=rng), ThresholdReLU(), Linear(8, 3, rng=rng)
        )
        batches = [(rng.random((12, 8)), rng.integers(0, 3, 12))]
        trainer = DNNTrainer(DNNTrainConfig(epochs=1, lr=0.05))
        with OpProfiler() as profiler:
            trainer.fit(model, batches, batches, verbose=False)
        layers = {r.get("layer", "") for r in profiler.records}
        assert any(l.startswith("dnn.train_epoch") for l in layers)
        assert any(l.startswith("dnn.eval") for l in layers)
