"""Observability layer: spans, metrics, logging, instruments, report."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.nn import Linear
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import load_run, render_report
from repro.snn import (
    SpikingNetwork,
    SpikingNeuron,
    SpikingSequential,
    StepWrapper,
    count_spikes,
)


def _reset_obs():
    obs.shutdown()
    obs.reset_registry()
    trace.reset()
    obs.state().events.clear()
    obs.state().spans.clear()


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with observability off and empty."""
    _reset_obs()
    yield
    _reset_obs()


def tiny_snn(timesteps=2, rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    body = SpikingSequential(
        StepWrapper(Linear(4, 6, rng=rng)),
        SpikingNeuron(v_threshold=0.5, trainable=False),
        StepWrapper(Linear(6, 3, rng=rng)),
    )
    return SpikingNetwork(body, timesteps=timesteps)


class TestCore:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()

    def test_configure_shutdown_cycle(self, tmp_path):
        state = obs.configure(run_dir=str(tmp_path), arch="vgg16")
        assert obs.is_enabled()
        assert state.run_id is not None
        obs.shutdown()
        assert not obs.is_enabled()
        # run_start + run_end both made it to disk.
        lines = (tmp_path / "events.jsonl").read_text().strip().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == ["run_start", "run_end"]
        # Context fields are merged into every record.
        assert all(json.loads(line)["arch"] == "vgg16" for line in lines)

    def test_observe_context_manager(self):
        with obs.observe():
            assert obs.is_enabled()
        assert not obs.is_enabled()

    def test_memory_only_run(self):
        with obs.observe():
            with trace.span("a"):
                pass
            assert len(obs.state().spans) == 1


class TestSpans:
    def test_null_span_singleton_when_disabled(self):
        assert trace.span("x") is trace.span("y")
        assert trace.span("x") is trace.NULL_SPAN
        with trace.span("x") as sp:
            sp.set(anything=1)  # no-op, no error

    def test_nesting_parent_ids_and_depth(self):
        with obs.observe():
            with trace.span("outer") as outer:
                with trace.span("inner") as inner:
                    assert trace.current_span() is inner
                    assert inner.parent_id == outer.span_id
                    assert inner.depth == 1
            assert trace.current_span() is None
        spans = {s["name"]: s for s in obs.state().spans}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        # Children close (and are emitted) before their parent.
        names = [s["name"] for s in obs.state().spans]
        assert names == ["inner", "outer"]

    def test_span_fields_and_duration(self):
        with obs.observe():
            with trace.span("work", layer=3) as sp:
                sp.set(alpha=0.5)
        (record,) = obs.state().spans
        assert record["fields"] == {"layer": 3, "alpha": 0.5}
        assert record["duration_s"] >= 0.0
        assert record["status"] == "ok"

    def test_error_status(self):
        with obs.observe():
            with pytest.raises(RuntimeError):
                with trace.span("doomed"):
                    raise RuntimeError("boom")
        (record,) = obs.state().spans
        assert record["status"] == "error"

    def test_jsonl_round_trip(self, tmp_path):
        with obs.observe(str(tmp_path)):
            with trace.span("outer"):
                with trace.span("inner", layer=1):
                    pass
        records = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().strip().splitlines()
        ]
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[0]["fields"] == {"layer": 1}
        assert all(r["kind"] == "span" for r in records)


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.inc("spikes", 3)
        registry.inc("spikes", 2)
        assert registry.counter("spikes").value == 5
        with pytest.raises(ValueError):
            registry.counter("spikes").inc(-1)

    def test_gauge_trajectory(self):
        registry = MetricsRegistry()
        for mu in (1.0, 0.8, 0.6):
            registry.set_gauge("mu", mu, layer=0)
        gauge = registry.gauge("mu", layer=0)
        assert gauge.value == 0.6
        assert gauge.trajectory == [1.0, 0.8, 0.6]

    def test_histogram_aggregation(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat", value)
        hist = registry.histogram("lat")
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        assert hist.median == pytest.approx(2.5)
        assert hist.minimum == 1.0 and hist.maximum == 4.0
        assert hist.std == pytest.approx(np.std([1, 2, 3, 4]))
        assert hist.percentile(100.0) == 4.0
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.observe("rate", 0.1, layer=0)
        registry.observe("rate", 0.9, layer=1)
        assert registry.histogram("rate", layer=0).count == 1
        assert registry.histogram("rate", layer=1).count == 1

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 2.0)
        registry.observe("h", 1.0, layer=2)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"]["g"]["value"] == 2.0
        assert snap["histograms"]["h{layer=2}"]["count"] == 1
        json.dumps(snap)  # JSON-serialisable

    def test_empty_histogram_percentile_raises(self):
        registry = MetricsRegistry()
        hist = registry.histogram("empty")
        with pytest.raises(ValueError, match="empty histogram"):
            hist.percentile(50.0)
        with pytest.raises(ValueError, match="empty histogram"):
            hist.median
        # The aggregate accessors stay well-defined without samples.
        assert hist.mean == 0.0
        assert hist.std == 0.0

    def test_empty_histogram_snapshot_serialisable(self):
        registry = MetricsRegistry()
        registry.histogram("empty")
        snap = registry.snapshot()
        payload = snap["histograms"]["empty"]
        assert payload["count"] == 0
        assert payload["p50"] is None and payload["p95"] is None
        json.dumps(snap)

    def test_global_writers_noop_when_disabled(self):
        obs_metrics.inc("nope")
        obs_metrics.gauge("nope", 1.0)
        obs_metrics.observe("nope", 1.0)
        assert len(obs.get_registry()) == 0

    def test_global_writers_record_when_enabled(self):
        with obs.observe():
            obs_metrics.observe("yes", 1.0)
        assert obs.get_registry().histogram("yes").count == 1


class TestLogging:
    def test_info_prints_and_records(self, capsys, tmp_path):
        with obs.observe(str(tmp_path)):
            obs.get_logger("demo").info("hello", epoch=1)
        assert "[demo] hello" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().strip().splitlines()
        ]
        logs = [r for r in records if r["kind"] == "log"]
        assert logs[0]["message"] == "hello"
        assert logs[0]["fields"] == {"epoch": 1}
        assert logs[0]["level"] == "info"

    def test_debug_silent_on_console_but_recorded(self, capsys):
        with obs.observe():
            obs.get_logger("demo").debug("quiet")
        assert capsys.readouterr().out == ""
        assert any(
            e.get("message") == "quiet" for e in obs.state().events
        )

    def test_console_level_adjustable(self, capsys):
        obs.set_console_level("error")
        try:
            obs.get_logger("demo").info("hidden")
            assert capsys.readouterr().out == ""
        finally:
            obs.set_console_level("info")

    def test_console_passthrough(self, capsys):
        with obs.observe():
            obs.console("| a | b |")
        assert "| a | b |" in capsys.readouterr().out
        assert any(e.get("kind") == "console" for e in obs.state().events)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs.get_logger("demo").log("loud", "msg")


class TestInstruments:
    def test_monitored_records_per_layer_histograms(self):
        snn = tiny_snn()
        images = np.random.default_rng(3).random((5, 4))
        with obs.observe():
            with obs.monitored(snn) as monitor:
                snn(images)
        registry = obs.get_registry()
        hist = registry.histogram("snn.spike_rate", layer=0)
        assert hist.count == snn.timesteps
        assert 0.0 <= hist.mean <= 1.0
        assert registry.counter("snn.spikes", layer=0).value == monitor.spikes[0]
        assert monitor.slots[0] == 5 * 6 * snn.timesteps

    def test_monitored_restores_state(self):
        snn = tiny_snn()
        images = np.zeros((2, 4))
        with obs.observe():
            with obs.monitored(snn):
                snn(images)
        assert all(not n._taps for n in snn.spiking_neurons())

    def test_monitored_noop_when_disabled(self):
        snn = tiny_snn()
        with obs.monitored(snn) as monitor:
            snn(np.zeros((2, 4)))
        assert monitor is None
        assert len(obs.get_registry()) == 0

    def test_record_spike_profile(self):
        snn = tiny_snn()
        with count_spikes(snn) as counts:
            snn(np.random.default_rng(0).random((4, 4)))
        with obs.observe():
            rates = obs.record_spike_profile(counts)
        registry = obs.get_registry()
        assert len(rates) == 1
        assert registry.gauge("snn.layer_spike_rate", layer=0).value == rates[0]

    def test_spike_profile_independent_of_batch_size(self):
        """A per-neuron-per-step rate: the same 16 images give the same
        rates (each at most 1) as one batch of 16 or 16 batches of 1."""
        snn = tiny_snn()
        images = np.random.default_rng(4).random((16, 4))
        rates = {}
        for batch in (16, 1):
            with count_spikes(snn) as counts:
                for start in range(0, len(images), batch):
                    snn(images[start:start + batch])
            rates[batch] = obs.record_spike_profile(counts)
        assert rates[16] == rates[1]
        assert all(0.0 < rate <= 1.0 for rate in rates[16])


class TestReport:
    def test_round_trip_and_render(self, tmp_path):
        with obs.observe(str(tmp_path)):
            with trace.span("outer", phase="x"):
                with trace.span("inner"):
                    pass
            obs_metrics.inc("events", 2)
            obs_metrics.gauge("acc", 0.75)
            obs_metrics.observe("lat", 0.5, layer=1)
            obs.get_logger("demo").error("bad thing")
        run = load_run(str(tmp_path))
        assert len(run.spans) == 2
        report = render_report(run)
        assert "outer" in report and "inner" in report
        assert "events" in report and "acc" in report and "lat{layer=1}" in report
        assert "bad thing" in report
        # inner is rendered indented under outer (tree order).
        assert report.index("outer") < report.index("&nbsp;&nbsp;inner")

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(str(tmp_path / "nope"))

    def test_empty_dir_renders(self, tmp_path):
        report = render_report(load_run(str(tmp_path)))
        assert "no spans recorded" in report

    def test_partial_run_renders_with_warnings(self, tmp_path):
        """A run dir missing spans/metrics degrades to a partial report
        with one warning line per missing artefact, not an exception."""
        (tmp_path / "events.jsonl").write_text(
            json.dumps({"kind": "log", "level": "info", "message": "hi"}) + "\n"
        )
        run = load_run(str(tmp_path))
        assert len(run.events) == 1
        assert any("trace.jsonl" in w for w in run.warnings)
        assert any("metrics.json" in w for w in run.warnings)
        report = render_report(run)
        assert "⚠" in report
        assert "no spans recorded" in report
        assert "1 log" in report

    def test_corrupt_artefact_warns_instead_of_raising(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("{not json\n")
        (tmp_path / "metrics.json").write_text("{broken")
        run = load_run(str(tmp_path))
        assert run.spans == [] and run.metrics == {}
        # JSONL corruption degrades per line (torn tails keep good
        # records); the single-document metrics.json is all-or-nothing.
        assert any(
            "trace.jsonl" in w and "malformed" in w for w in run.warnings
        )
        assert any("metrics.json" in w and "unreadable" in w for w in run.warnings)
        render_report(run)  # still renders

    def test_missing_drift_is_not_a_warning(self, tmp_path):
        run = load_run(str(tmp_path))
        assert not any("drift" in w for w in run.warnings)
        assert "Conversion drift" not in render_report(run)


class TestReportCli:
    def test_module_run_prints_no_warning(self):
        """``python -m repro.obs.report`` must not find its own module
        already imported by the package (runpy's RuntimeWarning)."""
        src = os.path.dirname(os.path.dirname(os.path.dirname(obs.__file__)))
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.obs.report", "--help"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


class TestPipelineTracing:
    @pytest.fixture(scope="class")
    def pipeline_runs(self, tmp_path_factory):
        """The tiny pipeline, observed and op-profiled, run twice with the
        same seed (fresh caches each time) into two run directories; each
        run then converts its trained DNN once more."""
        from dataclasses import replace

        from repro.experiments import ExperimentConfig, convert_only, get_scale, run_pipeline
        from repro.experiments.context import clear_context_cache
        from repro.experiments.pipeline import clear_pipeline_cache

        scale = replace(
            get_scale("tiny"),
            name="obs-test",
            image_size=8,
            train_size=40,
            test_size=20,
            width_multiplier=0.125,
            batch_size=20,
            dnn_epochs=1,
            snn_epochs=1,
            calibration_batches=1,
        )
        config = ExperimentConfig(
            arch="vgg11", dataset="cifar10", timesteps=2, scale=scale
        )
        root = tmp_path_factory.mktemp("pipeline")
        run_dirs = [str(root / "a"), str(root / "b")]
        try:
            for run_dir in run_dirs:
                clear_context_cache()
                clear_pipeline_cache()
                with obs.observe(run_dir, profile=True, seed=config.seed):
                    result = run_pipeline(config, fine_tune=False)
                    convert_only(config, context=result.context)
        finally:
            clear_context_cache()
            clear_pipeline_cache()
            _reset_obs()
        return run_dirs

    def test_run_pipeline_writes_nested_trace(self, pipeline_runs):
        """Acceptance: a traced run_pipeline produces nested spans for
        calibration -> Algorithm 1 -> conversion -> SNN eval plus
        per-layer spike-rate histograms."""
        run = load_run(pipeline_runs[0])
        spans = {}
        for s in run.spans:
            spans.setdefault(s["name"], s)
        for name in ("run_pipeline", "calibration", "algorithm1",
                     "conversion", "snn_eval"):
            assert name in spans, f"missing span {name}"
        root_id = spans["run_pipeline"]["span_id"]
        assert spans["run_pipeline"]["parent_id"] is None
        for child in ("calibration", "algorithm1", "conversion", "snn_eval"):
            assert spans[child]["parent_id"] == root_id
            assert spans[child]["depth"] == 1
        # One algorithm1 span per activation layer (VGG-11 has 9) and
        # conversion, and one calibration forward: the second conversion
        # of the unchanged DNN reuses the first one's statistics.
        assert sum(1 for s in run.spans if s["name"] == "algorithm1") == 2 * 9
        calibrations = [s for s in run.spans if s["name"] == "calibration"]
        assert [s["fields"]["reused"] for s in calibrations] == [False, True]
        assert calibrations[1]["parent_id"] is None

        histograms = run.metrics["histograms"]
        spike_rates = [k for k in histograms if k.startswith("snn.spike_rate")]
        assert len(spike_rates) == 9  # one per spiking layer
        assert all(histograms[k]["count"] > 0 for k in spike_rates)
        # Scaling-factor trajectories were gauged per layer.
        assert "conversion.mu{layer=0}" in run.metrics["gauges"]
        assert "algorithm1.residual{layer=0}" in histograms

    @pytest.mark.smoke
    def test_identical_seed_runs_diff_clean(self, pipeline_runs):
        """Two same-seed pipeline runs on this deterministic substrate
        must diff regression-free, carry energy gauges and drift records,
        profile the same op and layer sets, and render byte-identical
        reports."""
        from repro.obs.diff import diff_run_dirs

        run_a, run_b = pipeline_runs
        diff = diff_run_dirs(run_a, run_b)
        assert diff.ok, diff.render()

        run = load_run(run_a)
        assert any(name.startswith("energy.") for name in run.metrics["gauges"])
        assert run.drift

        summaries = [load_run(d).profile_summary for d in pipeline_runs]
        for table in ("by_op", "by_layer"):
            assert summaries[0][table]
            assert sorted(summaries[0][table]) == sorted(summaries[1][table])

        renders = [render_report(load_run(run_a)) for _ in range(2)]
        assert renders[0] and renders[0] == renders[1]


@pytest.fixture(scope="module")
def drift_setup():
    """A tiny (untrained) MLP conversion — enough for drift diagnosis."""
    from repro.conversion import ConversionConfig, convert_dnn_to_snn
    from repro.data import DataLoader
    from repro.nn import ReLU, Sequential

    rng = np.random.default_rng(7)
    model = Sequential(
        Linear(4, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng), ReLU(),
        Linear(3, 2, rng=rng),
    )
    loader = DataLoader(rng.random((16, 4)), rng.integers(0, 2, 16), 8)
    conversion = convert_dnn_to_snn(model, loader, ConversionConfig(timesteps=2))
    return model, conversion, loader


class TestDriftMonitor:
    def test_jsonl_series_across_phases(self, tmp_path, drift_setup):
        model, conversion, loader = drift_setup
        with obs.observe(str(tmp_path)):
            monitor = obs.DriftMonitor(conversion, model, loader)
            reports = monitor.snapshot("post_conversion")
            monitor.snapshot("epoch", epoch=1)
        registry = obs.get_registry()
        layers = len(conversion.specs)
        assert len(reports) == layers
        records = [
            json.loads(line)
            for line in (tmp_path / "drift.jsonl").read_text().strip().splitlines()
        ]
        assert len(records) == 2 * layers
        assert all(r["kind"] == "drift" for r in records)
        assert {r["snapshot"] for r in records} == {0, 1}
        assert records[-1]["phase"] == "epoch"
        assert records[-1]["epoch"] == 1
        for key in ("mu", "alpha", "beta", "k_mu", "h_t_mu",
                    "predicted_gap", "measured_gap", "relative_gap"):
            assert key in records[0]
        # Gauges landed per layer with full trajectories (one per snapshot).
        gauge = registry.gauge("conversion.drift.measured_gap", layer=0)
        assert len(gauge.trajectory) == 2

    def test_worst_layer_callout(self, drift_setup):
        model, conversion, loader = drift_setup
        monitor = obs.DriftMonitor(conversion, model, loader)
        assert monitor.worst() is None
        monitor.snapshot("post_conversion")
        worst = monitor.worst()
        assert worst is not None
        assert abs(worst["measured_gap"]) == max(
            abs(r["measured_gap"]) for r in monitor.snapshots
        )
        assert monitor.worst(phase="nope") is None

    def test_uses_active_run_dir_and_report_section(self, tmp_path, drift_setup):
        model, conversion, loader = drift_setup
        with obs.observe(str(tmp_path)):
            monitor = obs.DriftMonitor(conversion, model, loader)
            monitor.snapshot("post_conversion")
        run = load_run(str(tmp_path))
        assert len(run.drift) == len(conversion.specs)
        report = render_report(run)
        assert "## Conversion drift" in report
        assert "Worst layer" in report
        assert "post_conversion" in report
        # The global registry got the per-layer gauges while enabled.
        assert (
            obs.get_registry().gauge(
                "conversion.drift.predicted_gap", layer=0
            ).value is not None
        )

    def test_global_registry_untouched_when_disabled(self, drift_setup):
        model, conversion, loader = drift_setup
        monitor = obs.DriftMonitor(conversion, model, loader)
        monitor.snapshot("post_conversion")
        # The in-memory series is still kept...
        assert len(monitor.snapshots) == len(conversion.specs)
        # ...but the disabled global registry stayed empty.
        assert len(obs.get_registry()) == 0

    def test_no_batches_rejected(self, drift_setup):
        model, conversion, _loader = drift_setup
        with pytest.raises(ValueError):
            obs.DriftMonitor(conversion, model, [])


def _drive_spike_profile(snn, images, _drift_setup):
    with count_spikes(snn) as counts:
        snn(images)
    obs.record_spike_profile(counts)


def _drive_energy_profile(snn, images, _drift_setup):
    labels = np.zeros(len(images), dtype=int)
    obs.record_energy_profile(snn, [(images, labels)], input_shape=(4,))


def _drive_monitored(snn, images, _drift_setup):
    with obs.monitored(snn):
        snn(images)


def _drive_drift_snapshot(_snn, _images, drift_setup):
    model, conversion, loader = drift_setup
    obs.DriftMonitor(conversion, model, loader).snapshot("post_conversion")


def _drive_health_epoch(snn, _images, _drift_setup):
    obs.HealthMonitor().observe_epoch(
        "snn", 1, loss=1.0, grad_norm=1e9, model=snn, timesteps=2,
        layer_rates=[0.0],
    )


def _drive_fault_session(snn, images, _drift_setup):
    from repro.faults import FaultSpec, inject_faults

    with inject_faults(snn, FaultSpec.pruning(0.5, seed=1)):
        snn(images)


class TestDisabledPath:
    @pytest.mark.parametrize("drive", [
        _drive_spike_profile, _drive_energy_profile, _drive_monitored,
        _drive_drift_snapshot, _drive_health_epoch, _drive_fault_session,
    ], ids=lambda drive: drive.__name__[len("_drive_"):])
    def test_instrument_leaves_no_trace(
        self, drive, drift_setup, tmp_path, monkeypatch
    ):
        """With observability off, no instrument writes the global
        registry or creates a file."""
        monkeypatch.chdir(tmp_path)
        drive(tiny_snn(), np.random.default_rng(0).random((4, 4)), drift_setup)
        assert len(obs.get_registry()) == 0
        assert os.listdir(tmp_path) == []


def _artefact_sizes(run_dir):
    return {name: os.path.getsize(run_dir / name) for name in os.listdir(run_dir)}


class TestForkSafety:
    def test_forked_child_cannot_grow_parent_artefacts(self, tmp_path, drift_setup):
        """A child forked mid-run calls quiesce_forked(); whatever it then
        records through the drift, fault and health writers (or a span)
        must not reach the parent's run directory."""
        from repro.faults import FaultSpec, inject_faults
        from repro.obs import health as obs_health

        model, conversion, loader = drift_setup
        snn = tiny_snn()
        images = np.random.default_rng(0).random((4, 4))
        run_dir = tmp_path / "run"
        with obs.observe(str(run_dir)):
            drift = obs.DriftMonitor(conversion, model, loader)
            drift.snapshot("parent")
            monitor = obs_health.active()
            monitor.observe_epoch("snn", 1, loss=1.0, grad_norm=1e9)
            with inject_faults(snn, FaultSpec.pruning(0.5, seed=1)) as session:
                snn(images)
                session.telemetry.record("parent")
                with trace.span("parent"):
                    pass
                before = _artefact_sizes(run_dir)
                assert {"drift.jsonl", "alerts.jsonl", "faults.jsonl",
                        "trace.jsonl", "events.jsonl"} <= set(before)
                pid = os.fork()
                if pid == 0:  # the child never returns into pytest
                    code = 1
                    try:
                        obs.quiesce_forked()
                        drift.snapshot("child")
                        session.telemetry.record("child")
                        monitor.observe_epoch("snn", 2, loss=1.0, grad_norm=1e12)
                        with trace.span("child"):
                            pass
                        code = 0
                    finally:
                        os._exit(code)
                _, status = os.waitpid(pid, 0)
                assert os.waitstatus_to_exitcode(status) == 0
                assert _artefact_sizes(run_dir) == before


class TestZeroOverheadWhenDisabled:
    def test_no_clock_reads_or_records(self):
        snn = tiny_snn()
        images = np.zeros((2, 4))
        snn(images)
        assert obs.state().spans == []
        assert obs.state().events == []
        assert len(obs.get_registry()) == 0
        assert all(not n._taps for n in snn.spiking_neurons())

    def test_disabled_calls_are_cheap(self):
        """Disabled span/metric calls must stay at raw-function-call
        cost (a boolean check), not allocate or touch the clock."""
        import timeit

        calls = 20_000
        span_cost = min(
            timeit.repeat(
                lambda: trace.span("hot", layer=1), number=calls, repeat=3
            )
        ) / calls
        metric_cost = min(
            timeit.repeat(
                lambda: obs_metrics.observe("hot", 1.0, layer=1),
                number=calls,
                repeat=3,
            )
        ) / calls
        # Generous bound (a plain Python call is ~0.1 us): catches any
        # accidental work sneaking onto the disabled path.
        assert span_cost < 5e-6
        assert metric_cost < 5e-6
