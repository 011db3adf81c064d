"""Worker-telemetry capture and deterministic merge (repro.obs.remote).

The contract under test: when the parent run is observed, executor
workers capture (rather than quiesce) their telemetry, and the parent
merges it so that

- the canonical ``worker_telemetry.jsonl`` is bitwise identical across
  reruns and worker counts (serial tee included),
- aggregate metrics / events equal a serial observed run's,
- worker spans stitch under the dispatching ``exec.map`` span,
- a worker killed mid-telemetry-write degrades to shard recovery
  (torn tails skipped, intact prefix kept),
- unobserved runs keep the PR-9 fully-quiesced workers.
"""

import json
import os

import pytest

from repro.exec import ParallelExecutor, executor_scope
from repro.faults import ChaosSpec
from repro.obs import metrics as obs_metrics
from repro.obs import observe
from repro.obs import remote as obs_remote


def _instrumented_task(payload):
    """Deterministic task that exercises every capture channel."""
    index, scale = payload
    from repro.obs import metrics, trace
    from repro.obs.logging import get_logger

    with trace.span("point.eval", index=index):
        with trace.span("point.inner"):
            metrics.inc("sweep.points")
            metrics.observe("sweep.value", scale * index)
            metrics.gauge("sweep.last_index", float(index))
        get_logger("exec-obs-test").debug("point done", index=index)
    return float(index * scale)


def _sometimes_failing_task(payload):
    index, _ = payload
    if index == 2:
        raise RuntimeError("task 2 always fails")
    return _instrumented_task(payload)


_TASKS = [(i, 0.5) for i in range(6)]


def _run_map(tmp_path, name, workers, chaos=None, telemetry=None):
    run_dir = str(tmp_path / name)
    with observe(run_dir, smoke=True, seed=0):
        outcome = ParallelExecutor(
            workers=workers, chaos=chaos, telemetry=telemetry
        ).map(_instrumented_task, _TASKS, label="obs-test")
    return run_dir, outcome


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _merged_bytes(run_dir):
    with open(os.path.join(run_dir, "worker_telemetry.jsonl"), "rb") as fp:
        return fp.read()


class TestCanonicalDeterminism:
    def test_merged_stream_bitwise_across_worker_counts(self, tmp_path):
        blobs = {}
        for workers in (1, 2, 4):
            run_dir, outcome = _run_map(tmp_path, f"w{workers}", workers)
            assert outcome.ok
            blobs[workers] = _merged_bytes(run_dir)
        assert blobs[1]  # tee captured the serial run too
        assert blobs[1] == blobs[2] == blobs[4]
        lines = [
            json.loads(line)
            for line in blobs[1].decode("utf-8").splitlines()
        ]
        assert {line["task"] for line in lines} == set(range(len(_TASKS)))
        kinds = {line["kind"] for line in lines}
        assert {"event", "span", "metric"} <= kinds
        for line in lines:
            # Volatile fields must never reach the canonical stream.
            assert not {"ts", "pid", "worker", "attempt"} & set(line["data"])

    def test_rerun_is_bitwise_identical(self, tmp_path):
        run_a, _ = _run_map(tmp_path, "a", 2)
        run_b, _ = _run_map(tmp_path, "b", 2)
        assert _merged_bytes(run_a) == _merged_bytes(run_b)

    def test_aggregate_metrics_and_events_match_serial(self, tmp_path):
        run1, _ = _run_map(tmp_path, "serial", 1)
        run4, _ = _run_map(tmp_path, "par", 4)
        snapshots = []
        for run_dir in (run1, run4):
            with open(os.path.join(run_dir, "metrics.json")) as fp:
                snapshots.append(json.load(fp))
        m1, m4 = snapshots

        def non_exec(counters):
            return {
                k: v for k, v in counters.items() if not k.startswith("exec.")
            }

        assert non_exec(m1["counters"]) == non_exec(m4["counters"])
        assert m1["counters"]["sweep.points"] == len(_TASKS)
        h1 = m1["histograms"]["sweep.value"]
        h4 = m4["histograms"]["sweep.value"]
        assert h1["count"] == h4["count"] == len(_TASKS)
        assert h1["mean"] == pytest.approx(h4["mean"])
        assert m1["gauges"]["sweep.last_index"]["value"] == (
            m4["gauges"]["sweep.last_index"]["value"]
        )

        logs1 = [
            e
            for e in _read_jsonl(os.path.join(run1, "events.jsonl"))
            if e.get("kind") == "log"
        ]
        logs4 = [
            e
            for e in _read_jsonl(os.path.join(run4, "events.jsonl"))
            if e.get("kind") == "log"
        ]
        assert len(logs1) == len(logs4) == len(_TASKS)


class TestSpanStitching:
    def test_worker_spans_stitch_under_dispatch(self, tmp_path):
        run_dir, _ = _run_map(tmp_path, "stitch", 2)
        spans = _read_jsonl(os.path.join(run_dir, "trace.jsonl"))
        dispatch = [s for s in spans if s["name"] == "exec.map"]
        assert len(dispatch) == 1
        evals = [s for s in spans if s["name"] == "point.eval"]
        inners = [s for s in spans if s["name"] == "point.inner"]
        assert len(evals) == len(inners) == len(_TASKS)
        for span in evals:
            assert span["parent_id"] == dispatch[0]["span_id"]
            assert span["depth"] == dispatch[0]["depth"] + 1
            assert isinstance(span["worker"], int)
            assert span["task"] in range(len(_TASKS))
        eval_ids = {s["task"]: s["span_id"] for s in evals}
        for span in inners:
            assert span["parent_id"] == eval_ids[span["task"]]
            assert span["depth"] == dispatch[0]["depth"] + 2

    def test_report_renders_stitched_run(self, tmp_path):
        from repro.obs.report import load_run, render_report

        run_dir, _ = _run_map(tmp_path, "report", 2)
        data = load_run(run_dir)
        assert data.worker_telemetry
        text = render_report(data)
        assert "## Parallel execution" in text
        assert "Worker lanes" in text
        assert "Worker telemetry" in text


class TestDegradedMerge:
    @pytest.mark.stress
    def test_kill_mid_telemetry_write_is_recovered_identically(self, tmp_path):
        clean_dir, clean = _run_map(tmp_path, "clean", 2)
        chaos_dir, chaotic = _run_map(
            tmp_path, "chaos", 2, chaos=ChaosSpec.kill_task_after(1, attempts=1)
        )
        assert chaotic.ok
        assert chaotic.results == clean.results
        assert chaotic.stats.crashes >= 1
        # The retried attempt's payload wins and the attempt number is
        # volatile, so the canonical stream is unscathed by the chaos.
        assert _merged_bytes(chaos_dir) == _merged_bytes(clean_dir)

    @pytest.mark.stress
    def test_poisoned_task_telemetry_recovered_from_torn_shard(self, tmp_path):
        run_dir, outcome = _run_map(
            tmp_path, "poison", 2, chaos=ChaosSpec.kill_task_after(2, attempts=6)
        )
        assert outcome.status == "partial"
        assert set(outcome.failures) == {2}
        # The task body completed before each kill, so its records are
        # in the shard prefix; the torn tail must not block recovery.
        lines = [
            json.loads(line)
            for line in _merged_bytes(run_dir).decode("utf-8").splitlines()
        ]
        assert 2 in {line["task"] for line in lines}
        with open(os.path.join(run_dir, "metrics.json")) as fp:
            counters = json.load(fp)["counters"]
        assert counters.get("exec.telemetry_tasks_recovered", 0) >= 1

    def test_recovery_skips_torn_tail_and_tolerates_absent_shards(
        self, tmp_path
    ):
        run_dir = str(tmp_path / "unit")
        with observe(run_dir, smoke=True):
            plan = obs_remote.MapTelemetry("unit")
            shard = os.path.join(run_dir, obs_remote.shard_filename(0))
            with open(shard, "w", encoding="utf-8") as fp:
                for seq in range(2):
                    fp.write(
                        json.dumps(
                            {
                                "schema": 1,
                                "map": plan.map_id,
                                "worker": 0,
                                "pid": 12345,
                                "task": 3,
                                "attempt": 0,
                                "seq": seq,
                                "kind": "event",
                                "data": {"kind": "log", "message": f"m{seq}"},
                            }
                        )
                        + "\n"
                    )
                fp.write('{"schema": 1, "map": ')  # torn tail, no newline
            stats = plan.merge()
            assert stats["recovered"] == 1
            assert stats["events"] == 2
            payload = plan.payloads[3]
            assert payload["status"] == "recovered"
            assert [r["seq"] for r in payload["records"]] == [0, 1]

            # Absent shards contribute nothing and never raise.
            empty_plan = obs_remote.MapTelemetry("unit-empty")
            assert empty_plan.merge()["tasks"] == 0


class TestActivationPolicy:
    def test_unobserved_map_keeps_quiesced_workers(self):
        from repro.obs import core as obs_core

        outcome = ParallelExecutor(workers=2).map(_instrumented_task, _TASKS)
        assert outcome.ok
        assert obs_core.capture_sink() is None

    def test_telemetry_false_forces_quiesce(self, tmp_path):
        run_dir, outcome = _run_map(tmp_path, "off", 2, telemetry=False)
        assert outcome.ok
        assert not os.path.exists(
            os.path.join(run_dir, "worker_telemetry.jsonl")
        )

    def test_config_dict_records_telemetry_mode(self):
        assert ParallelExecutor(workers=2).config_dict()["telemetry"] == "auto"
        assert (
            ParallelExecutor(workers=2, telemetry=False).config_dict()[
                "telemetry"
            ]
            is False
        )

    def test_fingerprint_records_telemetry_flag(self):
        from repro.obs.registry import _environment_fingerprint

        with executor_scope(ParallelExecutor(workers=2, telemetry=False)):
            env = _environment_fingerprint()
        assert env["executor"]["telemetry"] is False

    def test_artifact_registry_knows_shards_and_merged_stream(self):
        from repro.obs.registry import KNOWN_ARTIFACTS

        assert "worker_telemetry.jsonl" in KNOWN_ARTIFACTS
        assert "worker-*.jsonl" in KNOWN_ARTIFACTS


class TestExecHealthAlerts:
    def test_task_failures_raise_alert_once_per_stretch(self, tmp_path):
        run_dir = str(tmp_path / "alerts")
        with observe(run_dir, smoke=True):
            executor = ParallelExecutor(workers=1, max_retries=0)
            executor.map(_sometimes_failing_task, _TASKS, label="sweep")
            executor.map(_sometimes_failing_task, _TASKS, label="sweep")
            executor.map(_instrumented_task, _TASKS, label="sweep")
            executor.map(_sometimes_failing_task, _TASKS, label="sweep")
        alerts = [
            r
            for r in _read_jsonl(os.path.join(run_dir, "alerts.jsonl"))
            if r.get("kind") == "alert" and r.get("rule") == "exec_task_failures"
        ]
        # Armed after the first failing map, re-armed by the clean one.
        assert len(alerts) == 2
        assert all(a["severity"] == "error" for a in alerts)

    @pytest.mark.stress
    def test_worker_crashes_raise_alert(self, tmp_path):
        run_dir, outcome = _run_map(
            tmp_path, "crash", 2, chaos=ChaosSpec.kill_task(1, attempts=1)
        )
        assert outcome.ok
        rules = {
            r.get("rule")
            for r in _read_jsonl(os.path.join(run_dir, "alerts.jsonl"))
            if r.get("kind") == "alert"
        }
        assert "exec_worker_crashes" in rules


class TestDiffIntegration:
    def test_serial_vs_parallel_observed_diff_is_clean(self, tmp_path):
        from repro.obs.diff import diff_run_dirs

        run1, _ = _run_map(tmp_path, "base", 1)
        run4, _ = _run_map(tmp_path, "cand", 4)
        diff = diff_run_dirs(run1, run4)
        assert diff.ok, diff.render()
        exec_rows = [d for d in diff.deltas if d.name.startswith("exec:")]
        assert exec_rows, "expected informational exec: telemetry rows"
        assert all(d.direction == "skip" for d in exec_rows)


class TestChaosKillAfter:
    def test_schedule_and_roundtrip(self):
        spec = ChaosSpec.kill_task_after(3, attempts=2)
        assert spec.should_kill_after(3, 0) and spec.should_kill_after(3, 1)
        assert not spec.should_kill_after(3, 2)
        assert not spec.should_kill_after(2, 0)
        assert not spec.is_null
        assert ChaosSpec.from_dict(json.loads(json.dumps(spec.as_dict()))) == spec


class TestMetricReplay:
    def test_apply_metric_op_replays_each_kind(self):
        from repro.obs.metrics import MetricsRegistry, apply_metric_op

        registry = MetricsRegistry()
        apply_metric_op(
            registry, {"op": "inc", "name": "a", "value": 2.0, "labels": {}}
        )
        apply_metric_op(
            registry,
            {"op": "inc", "name": "a", "value": 1.0, "labels": {"layer": 3}},
        )
        apply_metric_op(
            registry, {"op": "gauge", "name": "g", "value": 7.5, "labels": {}}
        )
        apply_metric_op(
            registry, {"op": "observe", "name": "h", "value": 0.25, "labels": {}}
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a"] == 2.0
        assert snapshot["counters"]["a{layer=3}"] == 1.0
        assert snapshot["gauges"]["g"]["value"] == 7.5
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_apply_metric_op_ignores_garbage(self):
        from repro.obs.metrics import MetricsRegistry, apply_metric_op

        registry = MetricsRegistry()
        for op in (
            {},
            {"op": "inc"},
            {"op": "inc", "name": 7, "value": 1.0},
            {"op": "inc", "name": "x", "value": "not-a-number"},
            {"op": "inc", "name": "x", "value": 1.0, "labels": "nope"},
            {"op": "unknown", "name": "x", "value": 1.0},
            {"op": "window", "name": "w", "value": 1.5, "size": 4, "labels": {}},
        ):
            apply_metric_op(registry, op)
        assert len(registry) == 0

    def test_journal_records_are_deterministic(self):
        from repro.obs.metrics import MetricsRegistry

        ops = []
        registry = MetricsRegistry()
        registry._journal = ops.append
        registry.inc("c", 2.0, layer=1)
        registry.observe("h", 0.5)
        assert ops == [
            {"op": "inc", "name": "c", "value": 2.0, "labels": {"layer": 1}},
            {"op": "observe", "name": "h", "value": 0.5, "labels": {}},
        ]


class TestSuspendCapture:
    def test_suspended_records_never_enter_the_stream(self):
        from repro.obs import core as obs_core

        envelope = obs_remote.TelemetryEnvelope(map_id=1)
        buffer = obs_remote.TelemetryBuffer(envelope, worker_id=0)
        buffer.begin_task(0, 0)
        assert buffer.sink("event", {"message": "kept"})
        with obs_core.suspend_capture():
            buffer.sink("event", {"message": "dropped"})
            with obs_core.suspend_capture():  # re-entrant
                buffer.sink("event", {"message": "dropped too"})
        buffer.sink("event", {"message": "kept again"})
        payload = buffer.end_task("ok")
        messages = [r["data"]["message"] for r in payload["records"]]
        assert messages == ["kept", "kept again"]
        assert [r["seq"] for r in payload["records"]] == [0, 1]
