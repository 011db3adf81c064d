"""Cross-run analytics: run registry, diff engine, health monitors,
markdown and machine-readable reports and energy gauges."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.nn import Flatten, Linear, Sequential, ThresholdReLU
from repro.obs import health as obs_health
from repro.obs import trace
from repro.obs.__main__ import main as obs_main
from repro.obs.diff import diff_run_dirs, metric_direction
from repro.obs.diff import main as diff_main
from repro.obs.health import HealthMonitor
from repro.obs.instruments import record_energy_profile
from repro.obs.registry import (
    BaselineError,
    RunRegistry,
    artifact_inventory,
    config_fingerprint,
)
from repro.obs.report import load_run, render_report, run_to_json
from repro.obs.report import main as report_main
from repro.snn import SpikingNetwork, SpikingNeuron, SpikingSequential, StepWrapper
from repro.train.trainer import MIN_THRESHOLD


def _reset_obs():
    obs.shutdown()
    obs.reset_registry()
    obs_health.uninstall()
    trace.reset()
    obs.state().events.clear()
    obs.state().spans.clear()


@pytest.fixture(autouse=True)
def clean_obs():
    _reset_obs()
    yield
    _reset_obs()


@pytest.fixture
def registry_root(tmp_path, monkeypatch):
    """An isolated registry root (overrides the session-wide one)."""
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


def write_run_dir(
    base, name, metrics=None, faults=None, alerts=None, spans=None,
    drift=None, events=None,
):
    """Materialise a synthetic observed-run directory."""
    run_dir = base / name
    run_dir.mkdir(parents=True, exist_ok=True)
    if metrics is not None:
        (run_dir / "metrics.json").write_text(json.dumps(metrics))
    for filename, records in (
        ("faults.jsonl", faults),
        ("alerts.jsonl", alerts),
        ("trace.jsonl", spans),
        ("drift.jsonl", drift),
        ("events.jsonl", events),
    ):
        if records is not None:
            (run_dir / filename).write_text(
                "".join(json.dumps(r) + "\n" for r in records)
            )
    return str(run_dir)


BASE_METRICS = {
    "counters": {"dnn.examples_seen": 120.0},
    "gauges": {
        "pipeline.snn_accuracy": {"value": 0.8, "trajectory": []},
        "snn.train_loss{stream=snn}": {"value": 0.5, "trajectory": []},
    },
    "histograms": {
        "dnn.epoch_seconds": {"count": 2, "mean": 1.5},
        "snn.spike_rate{layer=0}": {"count": 4, "mean": 0.12},
    },
}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_auto_registration_lifecycle(self, tmp_path, registry_root):
        run_dir = tmp_path / "run_a"
        with obs.observe(str(run_dir), arch="vgg11", timesteps=2, seed=0):
            run_id = obs.state().run_id
            mid = RunRegistry().get(run_id)
            assert mid is not None and mid["status"] == "running"
            # Artefacts open on their first record: one span makes
            # trace.jsonl.
            with trace.span("lifecycle"):
                pass
        entry = RunRegistry().get(run_id)
        assert entry["status"] == "completed"
        assert entry["tags"] == {"arch": "vgg11", "timesteps": 2, "seed": 0}
        assert entry["config_fingerprint"] == config_fingerprint(entry["tags"])
        assert "python" in entry["environment"]
        assert entry["run_dir"] == str(run_dir)
        # Inventory covers the artefacts the run wrote.
        assert {"events.jsonl", "trace.jsonl", "metrics.json"} <= set(
            entry["artifacts"]
        )
        assert entry["artifacts"]["events.jsonl"] > 0
        assert entry["artifacts"]["metrics.json"] > 0

    def test_error_status_on_exception(self, tmp_path, registry_root):
        with pytest.raises(RuntimeError):
            with obs.observe(str(tmp_path / "run_err")):
                run_id = obs.state().run_id
                raise RuntimeError("boom")
        assert RunRegistry().get(run_id)["status"] == "error"

    def test_memory_only_run_not_registered(self, registry_root):
        with obs.observe():
            pass
        assert RunRegistry().runs() == []

    def test_kill_switch(self, tmp_path, registry_root, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DISABLE", "1")
        with obs.observe(str(tmp_path / "run_off")):
            pass
        assert RunRegistry().runs() == []

    def test_prefix_lookup_and_baseline(self, tmp_path):
        registry = RunRegistry(root=str(tmp_path / "reg"))
        registry.register_start("run-1-alpha", str(tmp_path / "a"), {})
        registry.register_start("run-2-beta", str(tmp_path / "b"), {})
        assert registry.get("run-1-alpha")["run_id"] == "run-1-alpha"
        assert registry.get("run-2")["run_id"] == "run-2-beta"
        assert registry.get("run-") is None  # ambiguous prefix
        assert registry.baseline() is None
        registry.set_baseline("run-2")
        assert registry.baseline_id() == "run-2-beta"
        with pytest.raises(KeyError):
            registry.set_baseline("nope")

    def test_corrupt_index_lines_skipped(self, tmp_path):
        registry = RunRegistry(root=str(tmp_path / "reg"))
        registry.register_start("run-ok", str(tmp_path / "a"), {})
        with open(registry.index_path, "a", encoding="utf-8") as fp:
            fp.write('{"torn": \n')
        assert [r["run_id"] for r in registry.runs()] == ["run-ok"]

    def test_gc_drops_missing_and_keeps_baseline(self, tmp_path):
        registry = RunRegistry(root=str(tmp_path / "reg"))
        dirs = {}
        for name in ("one", "two", "three"):
            dirs[name] = tmp_path / f"dir_{name}"
            dirs[name].mkdir()
            registry.register_start(f"run-{name}", str(dirs[name]), {})
            registry.register_end(f"run-{name}", str(dirs[name]))
        registry.set_baseline("run-one")

        # Missing directory => entry dropped (the baseline's directory
        # is intact here, so its tag survives).
        dirs["two"].rmdir()
        summary = registry.gc()
        assert summary == {
            "kept": 2, "dropped": 1, "dirs_deleted": 0,
            "baseline_cleared": False,
        }
        assert registry.get("run-two") is None

        # keep=1 prunes newest-last but never the baseline.
        summary = registry.gc(keep=1)
        assert summary["kept"] == 1
        assert registry.baseline_id() == "run-one"
        assert registry.get("run-one") is not None

    def test_gc_delete_dirs(self, tmp_path):
        registry = RunRegistry(root=str(tmp_path / "reg"))
        victim = tmp_path / "victim"
        victim.mkdir()
        (victim / "events.jsonl").write_text("{}\n")
        registry.register_start("run-victim", str(victim), {})
        summary = registry.gc(keep=0, delete_dirs=True)
        assert summary["dirs_deleted"] == 1
        assert not victim.exists()

    def test_artifact_inventory(self, tmp_path):
        (tmp_path / "events.jsonl").write_text("x\n")
        (tmp_path / "unrelated.txt").write_text("y")
        inventory = artifact_inventory(str(tmp_path))
        assert inventory == {"events.jsonl": 2}


class TestDanglingBaseline:
    def _registry_with_dangling_baseline(self, tmp_path):
        registry = RunRegistry(root=str(tmp_path / "reg"))
        gone = tmp_path / "gone"
        gone.mkdir()
        registry.register_start("run-gone", str(gone), {})
        registry.register_end("run-gone", str(gone))
        registry.set_baseline("run-gone")
        gone.rmdir()
        return registry

    def test_require_baseline_messages(self, tmp_path):
        registry = RunRegistry(root=str(tmp_path / "reg"))
        with pytest.raises(BaselineError, match="tag-baseline"):
            registry.require_baseline()
        registry = self._registry_with_dangling_baseline(tmp_path)
        with pytest.raises(BaselineError, match="dangling"):
            registry.require_baseline()

    def test_gc_clears_dangling_tag(self, tmp_path):
        registry = self._registry_with_dangling_baseline(tmp_path)
        summary = registry.gc()
        assert summary["baseline_cleared"] is True
        assert registry.baseline_id() is None
        with pytest.raises(BaselineError, match="tag-baseline"):
            registry.require_baseline()

    def test_gc_cli_warns(self, tmp_path, monkeypatch, capsys):
        registry = self._registry_with_dangling_baseline(tmp_path)
        assert obs_main(["runs", "--root", registry.root, "gc"]) == 0
        captured = capsys.readouterr()
        assert "dangling baseline tag" in captured.err

    def test_diff_baseline_fails_actionably(self, tmp_path, monkeypatch,
                                            capsys):
        registry = self._registry_with_dangling_baseline(tmp_path)
        monkeypatch.setenv("REPRO_RUNS_ROOT", registry.root)
        live = tmp_path / "live"
        live.mkdir()
        with pytest.raises(SystemExit) as excinfo:
            obs_main(["diff", str(live), "--baseline"])
        assert excinfo.value.code == 2
        assert "runs gc" in capsys.readouterr().err


class TestRunsCli:
    def test_list_show_tag_gc(self, tmp_path, capsys):
        root = str(tmp_path / "reg")
        registry = RunRegistry(root=root)
        run_dir = tmp_path / "r1"
        run_dir.mkdir()
        registry.register_start("run-77-1", str(run_dir), {"arch": "vgg11"})
        registry.register_end("run-77-1", str(run_dir))

        assert obs_main(["runs", "--root", root, "list"]) == 0
        out = capsys.readouterr().out
        assert "run-77-1" in out and "completed" in out

        assert obs_main(["runs", "--root", root, "show", "run-77"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == "run-77-1"

        assert obs_main(["runs", "--root", root, "tag-baseline", "run-77"]) == 0
        assert "run-77-1" in capsys.readouterr().out

        assert obs_main(["runs", "--root", root, "gc", "--keep", "5"]) == 0
        assert "kept 1" in capsys.readouterr().out

    def test_show_unknown_exits_nonzero(self, tmp_path, capsys):
        root = str(tmp_path / "reg")
        assert obs_main(["runs", "--root", root, "show", "ghost"]) == 2
        assert "not found" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Diff engine
# ----------------------------------------------------------------------
class TestDiff:
    def test_direction_inference(self):
        assert metric_direction("gauge:pipeline.snn_accuracy") == "up"
        assert metric_direction("gauge:energy.improvement") == "up"
        assert metric_direction("gauge:snn.train_loss") == "down"
        assert metric_direction("drift:measured_gap{layer=1}") == "down"
        assert metric_direction("alerts:spike_collapse") == "down"
        assert metric_direction("fault:stuck_at.events") == "down"
        assert metric_direction("histogram:dnn.epoch_seconds.mean") == "skip"
        assert metric_direction("span:snn_eval.total_s") == "skip"
        assert metric_direction("gauge:training_memory.total_bytes") == "skip"
        assert metric_direction("counter:snn.spikes{layer=0}") == "both"

    def test_identical_runs_diff_clean(self, tmp_path):
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(tmp_path, "b", metrics=BASE_METRICS)
        diff = diff_run_dirs(a, b)
        assert diff.ok and not diff.changed

    def test_accuracy_drop_regresses(self, tmp_path):
        worse = json.loads(json.dumps(BASE_METRICS))
        worse["gauges"]["pipeline.snn_accuracy"]["value"] = 0.6
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(tmp_path, "b", metrics=worse)
        diff = diff_run_dirs(a, b)
        assert not diff.ok
        names = [d.name for d in diff.regressions]
        assert names == ["gauge:pipeline.snn_accuracy"]
        # The reverse direction (accuracy went UP) is fine.
        assert diff_run_dirs(b, a).ok

    def test_loss_rise_regresses_and_tolerance_gates(self, tmp_path):
        worse = json.loads(json.dumps(BASE_METRICS))
        worse["gauges"]["snn.train_loss{stream=snn}"]["value"] = 0.6
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(tmp_path, "b", metrics=worse)
        assert not diff_run_dirs(a, b).ok
        # A generous tolerance absorbs the delta.
        assert diff_run_dirs(a, b, rtol=0.5).ok

    def test_deterministic_substrate_any_change_regresses(self, tmp_path):
        changed = json.loads(json.dumps(BASE_METRICS))
        changed["counters"]["dnn.examples_seen"] = 140.0
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(tmp_path, "b", metrics=changed)
        diff = diff_run_dirs(a, b)
        assert [d.name for d in diff.regressions] == ["counter:dnn.examples_seen"]

    def test_timing_never_gates(self, tmp_path):
        slower = json.loads(json.dumps(BASE_METRICS))
        slower["histograms"]["dnn.epoch_seconds"]["mean"] = 99.0
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(
            tmp_path, "b", metrics=slower,
            spans=[{"kind": "span", "name": "snn_eval", "duration_s": 1.0,
                    "started_at": 0.0}],
        )
        assert diff_run_dirs(a, b).ok

    def test_new_fault_events_regress(self, tmp_path):
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(
            tmp_path, "b", metrics=BASE_METRICS,
            faults=[{"kind": "fault", "fault": "stuck_at", "layer": 0}] * 3,
        )
        diff = diff_run_dirs(a, b)
        assert not diff.ok
        (delta,) = diff.regressions
        assert delta.name == "fault:stuck_at.events"
        assert delta.note == "added" and delta.candidate == 3.0

    def test_new_alerts_regress(self, tmp_path):
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(
            tmp_path, "b", metrics=BASE_METRICS,
            alerts=[{"kind": "alert", "rule": "spike_collapse", "layer": 1}],
        )
        diff = diff_run_dirs(a, b)
        assert [d.name for d in diff.regressions] == ["alerts:spike_collapse"]

    def test_vanished_accuracy_regresses(self, tmp_path):
        stripped = json.loads(json.dumps(BASE_METRICS))
        del stripped["gauges"]["pipeline.snn_accuracy"]
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(tmp_path, "b", metrics=stripped)
        diff = diff_run_dirs(a, b)
        (delta,) = diff.regressions
        assert delta.note == "missing" and delta.direction == "up"

    def test_drift_series_aligned_at_latest_snapshot(self, tmp_path):
        drift_a = [
            {"kind": "drift", "snapshot": 0, "layer": 0, "measured_gap": 0.5},
            {"kind": "drift", "snapshot": 1, "layer": 0, "measured_gap": 0.1},
        ]
        drift_b = [
            {"kind": "drift", "snapshot": 0, "layer": 0, "measured_gap": 0.5},
            {"kind": "drift", "snapshot": 1, "layer": 0, "measured_gap": 0.4},
        ]
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS, drift=drift_a)
        b = write_run_dir(tmp_path, "b", metrics=BASE_METRICS, drift=drift_b)
        diff = diff_run_dirs(a, b)
        assert [d.name for d in diff.regressions] == [
            "drift:measured_gap{layer=0}"
        ]

    def test_cli_exit_codes_and_json(self, tmp_path, capsys):
        worse = json.loads(json.dumps(BASE_METRICS))
        worse["gauges"]["pipeline.snn_accuracy"]["value"] = 0.2
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(tmp_path, "b", metrics=BASE_METRICS)
        c = write_run_dir(tmp_path, "c", metrics=worse)

        assert diff_main([a, b]) == 0
        assert "OK: no regressions" in capsys.readouterr().out
        assert diff_main([a, c]) == 1
        assert "REGRESSED" in capsys.readouterr().out

        assert diff_main([a, c, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs.diff/v1"
        assert payload["ok"] is False and payload["regressions"] == 1

    def test_cli_baseline_mode(self, tmp_path, registry_root, capsys):
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        b = write_run_dir(tmp_path, "b", metrics=BASE_METRICS)
        registry = RunRegistry()
        registry.register_start("run-base", a, {})
        registry.set_baseline("run-base")
        assert diff_main([b, "--baseline"]) == 0
        out = capsys.readouterr().out
        assert f"baseline : {a}" in out

    def test_cli_baseline_mode_requires_tag(self, tmp_path, registry_root,
                                            capsys):
        a = write_run_dir(tmp_path, "a", metrics=BASE_METRICS)
        with pytest.raises(SystemExit):
            diff_main([a, "--baseline"])


# ----------------------------------------------------------------------
# Health monitors
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def test_grad_explosion_fires_once_per_stretch(self, tmp_path):
        with obs.observe(str(tmp_path)):
            monitor = HealthMonitor()
            assert monitor.observe_epoch("snn", 1, loss=1.0, grad_norm=10.0) == []
            burst = monitor.observe_epoch("snn", 2, loss=0.9, grad_norm=5e3)
            assert [a["rule"] for a in burst] == ["grad_explosion"]
            assert burst[0]["severity"] == "critical"
            # Still exploded: no duplicate alert.
            assert monitor.observe_epoch("snn", 3, loss=0.8, grad_norm=6e3) == []
            # Recovered, then exploded again: re-armed.
            assert monitor.observe_epoch("snn", 4, loss=0.7, grad_norm=1.0) == []
            again = monitor.observe_epoch("snn", 5, loss=0.6, grad_norm=1e4)
            assert [a["rule"] for a in again] == ["grad_explosion"]

    def test_grad_growth_factor_triggers(self):
        with obs.observe():
            monitor = HealthMonitor()
            monitor.observe_epoch("dnn", 1, loss=1.0, grad_norm=1.0)
            alerts = monitor.observe_epoch("dnn", 2, loss=1.0, grad_norm=500.0)
        assert [a["rule"] for a in alerts] == ["grad_explosion"]

    def test_loss_plateau(self):
        alerts = []
        with obs.observe():
            monitor = HealthMonitor()
            for epoch, loss in enumerate([1.0, 0.8, 0.8001, 0.8, 0.79999], 1):
                alerts += monitor.observe_epoch("dnn", epoch, loss=loss)
        assert [a["rule"] for a in alerts] == ["loss_plateau"]

    def test_spike_collapse_only_at_ultra_low_t(self):
        silent = [0.2, 0.0]
        fired = []
        with obs.observe():
            low_t = HealthMonitor()
            high_t = HealthMonitor()
            for epoch in (1, 2, 3):
                fired += low_t.observe_epoch(
                    "snn", epoch, loss=1.0, timesteps=2, layer_rates=silent
                )
                assert high_t.observe_epoch(
                    "snn", epoch, loss=1.0, timesteps=8, layer_rates=silent
                ) == []
        # Layer 1 collapsed exactly once (epochs 2 and 3 both silent,
        # but once-per-stretch); layer 0 is active and never fires.
        assert [(a["rule"], a["layer"]) for a in fired] == [
            ("spike_collapse", 1)
        ]

    def test_threshold_saturation(self):
        snn = tiny_snn()
        neurons = snn.spiking_neurons()
        neurons[0].v_threshold.data[...] = MIN_THRESHOLD
        with obs.observe():
            monitor = HealthMonitor()
            alerts = monitor.observe_epoch("snn", 1, loss=1.0, model=snn)
            assert ("threshold_saturation", 0) in [
                (a["rule"], a["layer"]) for a in alerts
            ]
            # Same stretch: quiet on the next epoch.
            assert all(
                a["rule"] != "threshold_saturation" or a["layer"] != 0
                for a in monitor.observe_epoch("snn", 2, loss=1.0, model=snn)
            )

    def test_heartbeats_and_alerts_land_in_file_and_registry(self, tmp_path):
        with obs.observe(str(tmp_path)):
            monitor = HealthMonitor()
            monitor.observe_epoch(
                "snn", 1, loss=0.7, accuracy=0.5, grad_norm=1.0,
                timesteps=2, layer_rates=[0.1, 0.2],
            )
            monitor.observe_epoch("snn", 2, loss=0.7, grad_norm=9e9)
        registry = obs.get_registry()
        records = [
            json.loads(line)
            for line in (tmp_path / "alerts.jsonl").read_text().splitlines()
        ]
        kinds = [r["kind"] for r in records]
        assert kinds.count("health") == 2 and kinds.count("alert") == 1
        heartbeat = records[0]
        assert heartbeat["layer_rates"] == [0.1, 0.2]
        assert heartbeat["accuracy"] == 0.5
        snapshot = registry.snapshot()
        assert "health.loss{stream=snn}" in snapshot["gauges"]
        assert "health.spike_rate{layer=0}" in snapshot["gauges"]
        assert "health.alerts{rule=grad_explosion}" in snapshot["counters"]

    def test_no_file_without_records(self, tmp_path):
        with obs.observe(str(tmp_path)):
            HealthMonitor()
        assert not (tmp_path / "alerts.jsonl").exists()

    def test_module_hook_noop_without_monitor(self):
        assert obs_health.active() is None
        assert obs_health.observe_epoch("dnn", 1, loss=1.0) == []

    def test_configure_installs_monitor_for_run_dirs(self, tmp_path):
        with obs.observe(str(tmp_path / "run")):
            assert obs_health.active() is not None
            obs_health.observe_epoch("snn", 1, loss=1.0)
        assert (tmp_path / "run" / "alerts.jsonl").exists()
        assert obs_health.active() is None
        with obs.observe():  # memory-only: no monitor
            assert obs_health.active() is None

    def test_gradient_sq_norm(self):
        model = Sequential(Linear(2, 2, bias=False, rng=np.random.default_rng(0)))
        (param,) = model.parameters()
        param.grad = np.ones_like(param.data) * 2.0
        assert obs_health.gradient_sq_norm(model) == pytest.approx(
            4.0 * param.data.size
        )


class TestTrainerHealthIntegration:
    def _blobs(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=n)
        centers = np.where(labels[:, None] == 0, -1.5, 1.5)
        images = rng.normal(size=(n, 4)) * 0.3 + centers
        return images.reshape(n, 1, 2, 2), labels

    def _model(self, seed=0):
        rng = np.random.default_rng(seed)
        return Sequential(
            Flatten(),
            Linear(4, 8, bias=False, rng=rng),
            ThresholdReLU(init_threshold=2.0),
            Linear(8, 2, bias=False, rng=rng),
        )

    def test_dnn_trainer_feeds_health_stream(self, tmp_path):
        from repro.data import DataLoader
        from repro.train import DNNTrainConfig, DNNTrainer

        images, labels = self._blobs()
        loader = DataLoader(images, labels, batch_size=20, shuffle=True, seed=0)
        run_dir = tmp_path / "dnn_run"
        with obs.observe(str(run_dir)):
            DNNTrainer(DNNTrainConfig(epochs=2, lr=0.05)).fit(
                self._model(), loader, loader
            )
        run = load_run(str(run_dir))
        dnn_beats = [h for h in run.health if h["stream"] == "dnn"]
        assert [h["epoch"] for h in dnn_beats] == [1, 2]
        assert all(h["grad_norm"] > 0 for h in dnn_beats)
        assert all(np.isfinite(h["loss"]) for h in dnn_beats)

    def test_snn_trainer_feeds_layer_rates(self, tmp_path):
        from repro.conversion import ConversionConfig, convert_dnn_to_snn
        from repro.data import DataLoader
        from repro.train import (
            DNNTrainConfig,
            DNNTrainer,
            SNNTrainConfig,
            SNNTrainer,
        )

        images, labels = self._blobs()
        loader = DataLoader(images, labels, batch_size=20, shuffle=True, seed=0)
        model = self._model()
        DNNTrainer(DNNTrainConfig(epochs=2, lr=0.05)).fit(model, loader)
        snn = convert_dnn_to_snn(
            model, DataLoader(images, labels, batch_size=20),
            ConversionConfig(timesteps=2),
        ).snn

        run_dir = tmp_path / "snn_run"
        with obs.observe(str(run_dir)):
            SNNTrainer(SNNTrainConfig(epochs=2, lr=1e-3)).fit(
                snn, loader, loader
            )
        run = load_run(str(run_dir))
        snn_beats = [h for h in run.health if h["stream"] == "snn"]
        assert [h["epoch"] for h in snn_beats] == [1, 2]
        for beat in snn_beats:
            assert beat["timesteps"] == 2
            assert len(beat["layer_rates"]) == len(snn.spiking_neurons())
        # Recording was only borrowed for the test pass.
        assert all(not n.recording for n in snn.spiking_neurons())


# ----------------------------------------------------------------------
# Report: JSON mode, errored spans, degraded inputs
# ----------------------------------------------------------------------
class TestReport:
    def _observed_failing_run(self, run_dir):
        with pytest.raises(ValueError):
            with obs.observe(str(run_dir)):
                with trace.span("calibration"):
                    raise ValueError("bad scaling factor")

    def test_errored_span_carries_exception(self, tmp_path):
        run_dir = tmp_path / "run"
        self._observed_failing_run(run_dir)
        run = load_run(str(run_dir))
        (span,) = [s for s in run.spans if s["name"] == "calibration"]
        assert span["status"] == "error"
        assert span["error"] == {
            "type": "ValueError", "message": "bad scaling factor",
        }
        report = render_report(run)
        assert "### Errored spans (1)" in report
        assert "**ValueError** bad scaling factor" in report

    def test_json_cli_shares_parser(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        self._observed_failing_run(run_dir)
        assert report_main([str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.obs.run/v1"
        assert payload["spans"][0]["error"]["type"] == "ValueError"
        # Same content the library parser produces.
        assert payload == json.loads(
            json.dumps(run_to_json(load_run(str(run_dir))), default=repr)
        )

    def test_degraded_run_dir(self, tmp_path):
        run_dir = write_run_dir(
            tmp_path, "degraded",
            drift=[{"kind": "drift", "snapshot": 0, "layer": 0,
                    "measured_gap": 0.1}],
            faults=[{"kind": "fault", "fault": "stuck_at", "layer": 2}],
        )
        # Torn tail on the trace file (killed mid-write).
        with open(os.path.join(run_dir, "trace.jsonl"), "w") as fp:
            fp.write('{"kind": "span", "name": "ok", "duration_s": 1.0}\n')
            fp.write('{"kind": "span", "name": "to')
        run = load_run(run_dir)
        assert [s["name"] for s in run.spans] == ["ok"]
        assert len(run.drift) == 1 and len(run.faults) == 1
        assert any("metrics.json" in w for w in run.warnings)
        assert any("skipped 1 malformed" in w for w in run.warnings)
        report = render_report(run)
        assert "## Fault events (1)" in report
        assert "stuck_at: 1" in report
        # The diff engine consumes the same degraded dir without error.
        diff = diff_run_dirs(run_dir, run_dir)
        assert diff.ok

    def test_missing_run_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(str(tmp_path / "ghost"))

    def test_cli_missing_run_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            report_main([str(tmp_path / "ghost")])

    def test_render_is_deterministic_and_complete(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        with obs.observe(str(run_dir)):
            with trace.span("convert"):
                pass
            obs_health.active().observe_epoch(
                "snn", 1, loss=0.9, accuracy=0.4,
                timesteps=2, layer_rates=[0.3, 0.0],
            )
            obs_health.active().observe_epoch(
                "snn", 2, loss=0.7, accuracy=0.5, grad_norm=9e9,
                timesteps=2, layer_rates=[0.3, 0.0],
            )
        renders = []
        for _ in range(2):
            assert report_main([str(run_dir)]) == 0
            renders.append(capsys.readouterr().out)
        assert renders[0] == renders[1]
        assert renders[0] == render_report(load_run(str(run_dir)))
        assert "`grad_explosion`" in renders[0]
        assert "| convert |" in renders[0]

    def test_torn_events_only_run_dir_renders(self, tmp_path):
        run_dir = tmp_path / "torn"
        run_dir.mkdir()
        # Only a torn events file, no other artefacts at all.
        (run_dir / "events.jsonl").write_text(
            '{"kind": "run_start", "run_id": "r-1"}\n{"kind": "lo'
        )
        run = load_run(str(run_dir))
        assert [e["run_id"] for e in run.events] == ["r-1"]
        report = render_report(run)
        assert "`events.jsonl`: skipped 1 malformed line(s)" in report
        assert "`trace.jsonl` missing" in report
        assert "`metrics.json` missing" in report
        assert "## Events (1 total, 0 log)" in report


# ----------------------------------------------------------------------
# Energy gauges
# ----------------------------------------------------------------------
class TestEnergyInstrument:
    def test_record_energy_profile_gauges(self):
        snn = tiny_snn()
        rng = np.random.default_rng(0)
        batches = [(rng.normal(size=(5, 4)), np.zeros(5, dtype=int))]
        with obs.observe():
            summary = record_energy_profile(snn, batches, input_shape=(4,))
        registry = obs.get_registry()
        assert summary["images"] == 5
        assert summary["dnn_total_flops"] == pytest.approx(4 * 6 + 6 * 3)
        assert summary["dnn_joules"] > 0
        snapshot = registry.snapshot()
        gauges = snapshot["gauges"]
        for name in (
            "energy.snn_total_flops", "energy.dnn_total_flops",
            "energy.snn_joules", "energy.dnn_joules", "energy.improvement",
            "energy.spikes_per_neuron{layer=0}", "energy.snn_ops{layer=0}",
            "energy.dnn_macs{layer=1}",
        ):
            assert name in gauges, name

    def test_pipeline_energy_profile_spans(self):
        # The pipeline hook is covered end-to-end by
        # test_obs.py::TestPipelineTracing::test_identical_seed_runs_diff_clean;
        # here we only pin that the span name is stable for reports.
        snn = tiny_snn()
        rng = np.random.default_rng(0)
        batches = [(rng.normal(size=(3, 4)), np.zeros(3, dtype=int))]
        with obs.observe():
            record_energy_profile(snn, batches, input_shape=(4,))
            names = [s["name"] for s in obs.state().spans]
        assert "energy_profile" in names


# ----------------------------------------------------------------------
# Experiments CLI
# ----------------------------------------------------------------------
class TestBaselineTagging:
    def test_tag_baseline_without_observed_run_is_noop(self, registry_root):
        from repro.experiments.pipeline import _tag_run_as_baseline

        _tag_run_as_baseline()  # must not raise
        assert RunRegistry().baseline() is None

    def test_tag_baseline_marks_active_run(self, tmp_path, registry_root):
        from repro.experiments.pipeline import _tag_run_as_baseline

        with obs.observe(str(tmp_path / "run")):
            run_id = obs.state().run_id
            _tag_run_as_baseline()
        assert RunRegistry().baseline_id() == run_id

    def test_cli_rejects_tag_baseline_without_trace(self):
        from repro.experiments.__main__ import main as experiments_main

        with pytest.raises(SystemExit):
            experiments_main(["table1", "--tag-baseline"])
