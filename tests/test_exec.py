"""Parallel executor: determinism, supervision, shm, and integrations.

The contract under test is the repo's bitwise-determinism guarantee:
``ParallelExecutor.map`` must return exactly what serial execution
returns at any worker count, under chaos worker kills, retries, and
graceful downgrades — and the experiment drivers built on it
(``run_fault_sweep``, ``seed_sweep``) must inherit that guarantee.
An observed run (``repro.obs`` enabled) always maps serially, so its
artefacts are a serial run's at any worker count.  A paired timing test
checks that the pool really overlaps latency-bound tasks.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.exec import (
    ExecutorError,
    ModelStore,
    ParallelExecutor,
    attach_model,
    clear_attach_cache,
    executor_scope,
    active_executor_config,
    tree_reduce,
)
from repro.faults import ChaosSpec
from repro.models import vgg11
from repro.obs import observe


def _checksum_task(payload):
    index, size = payload
    rng = np.random.default_rng(500 + index)
    matrix = rng.standard_normal((size, size))
    return float(np.tanh(matrix @ matrix.T).sum())


def _failing_task(payload):
    index, _ = payload
    if index == 2:
        raise RuntimeError("task 2 always fails")
    return _checksum_task(payload)


_TASKS = [(i, 10) for i in range(7)]


def _sleep_task(seconds):
    """A latency-bound task: waits rather than computes, so workers can
    overlap it even on a single-core host."""
    time.sleep(seconds)
    return seconds


def _instrumented_task(payload):
    """Deterministic task that emits a span, metrics and a log record."""
    from repro.obs import metrics, trace
    from repro.obs.logging import get_logger

    index, size = payload
    with trace.span("point.eval", index=index):
        metrics.inc("sweep.points")
        metrics.observe("sweep.value", 0.5 * index)
        get_logger("exec-test").debug("point done", index=index)
    return _checksum_task(payload)


def _run_observed_map(tmp_path, name, workers, fn=_instrumented_task):
    run_dir = str(tmp_path / name)
    with observe(run_dir, smoke=True, seed=0):
        outcome = ParallelExecutor(workers=workers).map(fn, _TASKS, label="obs-test")
    return run_dir, outcome


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _micro_model(seed=0):
    return vgg11(
        num_classes=5, image_size=8, width_multiplier=0.125,
        rng=np.random.default_rng(seed),
    )


class _StatsExecutor(ParallelExecutor):
    """Keeps the last map's stats, which run_fault_sweep drops."""

    def map(self, *args, **kwargs):
        outcome = super().map(*args, **kwargs)
        self.last_stats = outcome.stats
        return outcome


class TestTreeReduce:
    def test_fixed_combination_order(self):
        combined = tree_reduce(lambda a, b: f"({a}+{b})", list("abcdefg"))
        assert combined == "(((a+b)+(c+d))+((e+f)+g))"

    def test_matches_sum(self):
        values = [0.1 * i for i in range(11)]
        assert tree_reduce(lambda a, b: a + b, values) == pytest.approx(
            sum(values)
        )

    def test_single_item_passthrough(self):
        assert tree_reduce(lambda a, b: a + b, [42]) == 42

    def test_empty_needs_initial(self):
        with pytest.raises(ValueError):
            tree_reduce(lambda a, b: a + b, [])
        assert tree_reduce(lambda a, b: a + b, [], initial=7) == 7


class TestMapDeterminism:
    def test_bitwise_identical_across_worker_counts(self):
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        assert serial.ok and serial.stats.mode == "serial"
        for workers in (2, 4):
            outcome = ParallelExecutor(workers=workers).map(
                _checksum_task, _TASKS
            )
            assert outcome.ok and outcome.stats.mode == "parallel"
            assert outcome.results == serial.results

    def test_map_reduce_matches_serial_reduce(self):
        expected = tree_reduce(
            lambda a, b: a + b, [_checksum_task(t) for t in _TASKS]
        )
        got = ParallelExecutor(workers=2).map_reduce(
            _checksum_task, _TASKS, lambda a, b: a + b
        )
        assert got == expected

    def test_map_reduce_raises_on_partial(self):
        with pytest.raises(ExecutorError, match="task 2"):
            ParallelExecutor(workers=2, max_retries=0).map_reduce(
                _failing_task, _TASKS, lambda a, b: a + b
            )

    def test_empty_and_single_task(self):
        executor = ParallelExecutor(workers=4)
        assert executor.map(_checksum_task, []).results == []
        single = executor.map(_checksum_task, [_TASKS[0]])
        assert single.results == [_checksum_task(_TASKS[0])]

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2, max_retries=-1)
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2, poison_threshold=0)


class TestSupervision:
    def test_persistent_error_becomes_partial(self):
        outcome = ParallelExecutor(workers=2, max_retries=1).map(
            _failing_task, _TASKS
        )
        assert outcome.status == "partial"
        assert set(outcome.failures) == {2}
        failure = outcome.failures[2]
        assert failure.kind == "error"
        assert "always fails" in failure.message
        assert failure.attempts == 2  # first try + one retry
        assert outcome.results[2] is None
        clean = [r for i, r in enumerate(outcome.results) if i != 2]
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        assert clean == [r for i, r in enumerate(serial.results) if i != 2]

    @pytest.mark.stress
    def test_chaos_kill_is_retried_identically(self):
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        outcome = ParallelExecutor(
            workers=2, chaos=ChaosSpec.kill_task(3, attempts=1)
        ).map(_checksum_task, _TASKS)
        assert outcome.ok
        assert outcome.results == serial.results
        assert outcome.stats.crashes >= 1
        assert outcome.stats.restarts >= 1
        assert multiprocessing.active_children() == []

    @pytest.mark.stress
    def test_kill_after_task_body_is_retried_identically(self):
        """A worker that dies after the task body returns, before its
        result is sent, loses finished work: the task is charged one
        crash and re-run, and the map still equals the serial one."""
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        outcome = ParallelExecutor(
            workers=2, chaos=ChaosSpec.kill_task_after(3)
        ).map(_checksum_task, _TASKS)
        assert outcome.ok
        assert outcome.results == serial.results
        assert outcome.stats.crashes == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.stress
    def test_spent_restart_budget_finishes_serially(self):
        """A task that kills every worker it meets exhausts the restart
        budget before its poison threshold: the rest of the map runs in
        the parent, and the crashing task is marked poison there."""
        outcome = ParallelExecutor(
            workers=2,
            poison_threshold=100,
            chaos=ChaosSpec.kill_task(0, attempts=100),
        ).map(_checksum_task, _TASKS)
        assert set(outcome.failures) == {0}
        assert outcome.failures[0].kind == "poison"
        assert outcome.stats.downgraded
        assert "restart budget" in outcome.stats.downgrade_reason
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        assert outcome.results[1:] == serial.results[1:]
        assert multiprocessing.active_children() == []

    def test_spawn_failure_downgrades(self):
        """A task the ``spawn`` start method cannot pickle fails the pool
        at start-up; the map downgrades to serial with the same results."""
        outcome = ParallelExecutor(workers=2, start_method="spawn").map(
            lambda payload: _checksum_task(payload), _TASKS
        )
        assert outcome.ok
        assert outcome.stats.downgraded
        assert "worker spawn failed" in outcome.stats.downgrade_reason
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        assert outcome.results == serial.results
        assert multiprocessing.active_children() == []

    @pytest.mark.stress
    def test_poison_task_quarantined(self):
        outcome = ParallelExecutor(
            workers=2,
            poison_threshold=2,
            max_retries=5,
            chaos=ChaosSpec.kill_task(4, attempts=6),
        ).map(_checksum_task, _TASKS)
        assert outcome.status == "partial"
        assert set(outcome.failures) == {4}
        failure = outcome.failures[4]
        assert failure.kind == "poison"
        assert failure.worker_crashes == 2
        assert not outcome.stats.downgraded
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        assert all(
            outcome.results[i] == serial.results[i]
            for i in range(len(_TASKS)) if i != 4
        )
        assert multiprocessing.active_children() == []

    @pytest.mark.stress
    def test_hung_task_times_out(self):
        outcome = ParallelExecutor(
            workers=2,
            poison_threshold=1,
            task_timeout_s=0.4,
            chaos=ChaosSpec.hang_task(1, attempts=1),
        ).map(_checksum_task, _TASKS)
        assert outcome.status == "partial"
        assert set(outcome.failures) == {1}
        assert outcome.failures[1].kind == "timeout"
        assert outcome.stats.timeouts >= 1
        assert multiprocessing.active_children() == []

    def test_unavailable_start_method_downgrades(self):
        executor = ParallelExecutor(workers=4, start_method="not-a-method")
        assert executor.resolved_start_method() == "serial"
        outcome = executor.map(_checksum_task, _TASKS)
        assert outcome.ok
        assert outcome.stats.downgraded
        assert outcome.stats.mode == "serial"
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        assert outcome.results == serial.results

    def test_chaos_ignored_on_serial_path(self):
        outcome = ParallelExecutor(
            workers=1, chaos=ChaosSpec.kill_task(0)
        ).map(_checksum_task, _TASKS)
        assert outcome.ok

    def test_failure_record_roundtrip(self):
        outcome = ParallelExecutor(workers=1, max_retries=0).map(
            _failing_task, _TASKS
        )
        payload = json.loads(json.dumps(outcome.failures[2].as_dict()))
        assert payload["index"] == 2 and payload["kind"] == "error"


class TestChaosSpec:
    def test_schedule_is_by_index_and_attempt(self):
        spec = ChaosSpec.kill_task(3, attempts=2)
        assert spec.should_kill(3, 0) and spec.should_kill(3, 1)
        assert not spec.should_kill(3, 2)
        assert not spec.should_kill(2, 0)
        assert not spec.is_null

    def test_roundtrip(self):
        spec = ChaosSpec(kill=frozenset({(1, 0)}), hang=frozenset({(2, 1)}))
        assert ChaosSpec.from_dict(spec.as_dict()) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(kill=frozenset({(1,)}))
        with pytest.raises(ValueError):
            ChaosSpec.kill_task(-1)


class TestChaosKillAfter:
    def test_schedule_and_roundtrip(self):
        spec = ChaosSpec.kill_task_after(3, attempts=2)
        assert spec.should_kill_after(3, 0) and spec.should_kill_after(3, 1)
        assert not spec.should_kill_after(3, 2)
        assert not spec.should_kill_after(2, 0)
        assert not spec.is_null
        assert ChaosSpec.from_dict(json.loads(json.dumps(spec.as_dict()))) == spec


class TestObservedMapsRunSerially:
    def test_observed_map_takes_serial_path(self, tmp_path):
        run_dir, outcome = _run_observed_map(tmp_path, "observed", 2)
        serial = ParallelExecutor(workers=1).map(_checksum_task, _TASKS)
        assert outcome.ok and outcome.results == serial.results
        assert outcome.stats.mode == "serial"
        assert outcome.stats.downgraded
        assert "observed" in outcome.stats.downgrade_reason
        assert not [n for n in os.listdir(run_dir) if n.startswith("worker")]
        with open(os.path.join(run_dir, "metrics.json")) as fp:
            counters = json.load(fp)["counters"]
        assert counters["sweep.points"] == len(_TASKS)
        from repro.obs.report import load_run, render_report

        report = render_report(load_run(run_dir))
        assert "## Executor (1 maps, 1 downgraded to serial)" in report

    def test_unobserved_map_runs_parallel(self):
        outcome = ParallelExecutor(workers=2).map(_instrumented_task, _TASKS)
        assert outcome.ok
        assert outcome.stats.mode == "parallel"
        assert not outcome.stats.downgraded


class TestWorkersOverlapTasks:
    def test_four_workers_overlap_latency_bound_tasks(self):
        """Ten 40 ms waits over 4 workers must finish at least 1.7x sooner
        than serially: the pool really runs tasks concurrently.  Paired
        back-to-back minima, retried, as medians on a busy host drift."""
        from repro.profiling import time_callable

        points = [0.04] * 10
        serial = ParallelExecutor(workers=1)
        parallel = ParallelExecutor(workers=4)

        def run_serial():
            assert serial.map(_sleep_task, points).ok

        def run_parallel():
            assert parallel.map(_sleep_task, points).ok

        for attempt in range(3):
            serial_t = time_callable(run_serial, repeats=3, warmup=0)
            parallel_t = time_callable(run_parallel, repeats=3, warmup=0)
            if parallel_t.minimum * 1.7 <= serial_t.minimum:
                break
        else:
            raise AssertionError(
                f"4 workers overlapped under 1.7x vs serial: "
                f"{serial_t.minimum:.3f}s / {parallel_t.minimum:.3f}s = "
                f"{serial_t.minimum / parallel_t.minimum:.2f}x"
            )
        assert multiprocessing.active_children() == []


class TestExecHealthAlerts:
    def test_task_failures_raise_alert_once_per_stretch(self, tmp_path):
        def failing(payload):
            if payload[0] == 2:
                raise RuntimeError("task 2 always fails")
            return _instrumented_task(payload)

        run_dir = str(tmp_path / "alerts")
        with observe(run_dir, smoke=True):
            executor = ParallelExecutor(workers=1, max_retries=0)
            executor.map(failing, _TASKS, label="sweep")
            executor.map(failing, _TASKS, label="sweep")
            executor.map(_instrumented_task, _TASKS, label="sweep")
            executor.map(failing, _TASKS, label="sweep")
        alerts = [
            r
            for r in _read_jsonl(os.path.join(run_dir, "alerts.jsonl"))
            if r.get("kind") == "alert" and r.get("rule") == "exec_task_failures"
        ]
        # Armed after the first failing map, re-armed by the clean one.
        assert len(alerts) == 2
        assert all(a["severity"] == "error" for a in alerts)


class TestSharedMemory:
    def test_readonly_roundtrip_is_bitwise(self):
        model = _micro_model()
        clear_attach_cache()
        with ModelStore() as store:
            handle = store.publish(model)
            clone = attach_model(handle)
            for (name, param), (cname, cparam) in zip(
                model.named_parameters(), clone.named_parameters()
            ):
                assert name == cname
                np.testing.assert_array_equal(param.data, cparam.data)
            first = next(iter(clone.parameters()))
            with pytest.raises((ValueError, RuntimeError)):
                first.data[...] = 0.0
            clear_attach_cache()

    def test_writable_copy_is_private(self):
        model = _micro_model()
        clear_attach_cache()
        with ModelStore() as store:
            handle = store.publish(model)
            clone = attach_model(handle, writable=True)
            target = next(iter(clone.parameters()))
            before = next(iter(model.parameters())).data.copy()
            target.data[...] = 123.0
            np.testing.assert_array_equal(
                next(iter(model.parameters())).data, before
            )
            fresh = attach_model(handle)  # read-only view: unperturbed
            np.testing.assert_array_equal(
                next(iter(fresh.parameters())).data, before
            )
            clear_attach_cache()

    def test_publish_leaves_model_usable(self):
        from repro.tensor import Tensor, no_grad

        model = _micro_model()
        model.eval()
        images = np.random.default_rng(5).random((2, 3, 8, 8))
        with no_grad():
            before = model(Tensor(images)).data.copy()
        with ModelStore() as store:
            store.publish(model)
            with no_grad():
                np.testing.assert_array_equal(
                    model(Tensor(images)).data, before
                )


#: A fault_sweep-shaped map: a model published through ``ModelStore``,
#: attached by every worker's initializer, mapped at ``workers=2``.
_LIFETIME_SCRIPT = """
import numpy as np

from repro.exec import ModelStore, ParallelExecutor, attach_model
from repro.models import vgg11

MODEL = None


def init(handle):
    global MODEL
    MODEL = attach_model(handle)


def task(index):
    return index + float(sum(p.data.sum() for p in MODEL.parameters()))


if __name__ == "__main__":
    model = vgg11(num_classes=5, image_size=8, width_multiplier=0.125,
                  rng=np.random.default_rng(1))
    with ModelStore() as store:
        outcome = ParallelExecutor(workers=2).map(
            task, range(4), label="lifetime",
            initializer=init, initargs=(store.publish(model),),
        )
    print(outcome.stats.mode, len(outcome.values_or_raise()))
"""


#: The fault-sweep driver itself at ``workers=2``: tiny preset, one
#: short ladder.
_SWEEP_LIFETIME_SCRIPT = """
from repro.experiments import run_fault_sweep

if __name__ == "__main__":
    result = run_fault_sweep(
        "vgg11", "cifar10", "tiny", 2, fault_kinds=["prune"],
        ladders={"prune": (0.0, 0.3)}, seed=0, workers=2,
    )
    print(result["status"], len(result["curves"][0]["converted"]))
"""


def _run_in_own_session(tmp_path, source):
    """Run ``source`` as a script in its own session and return its
    output; fail if any process of that group (workers,
    multiprocessing's resource tracker) outlives it by 10 s."""
    script = tmp_path / "lifetime.py"
    script.write_text(source)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    with open(tmp_path / "out.txt", "w") as out:
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env, stdout=out,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    output = (tmp_path / "out.txt").read_text()
    assert proc.returncode == 0, output
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            raise AssertionError(
                f"a process of group {proc.pid} outlived its leader by 10 s"
            )
        time.sleep(0.05)
    return output


class TestProcessLifetime:
    def test_shared_memory_map_leaves_no_process(self, tmp_path):
        output = _run_in_own_session(tmp_path, _LIFETIME_SCRIPT)
        assert output.split()[-2:] == ["parallel", "4"], output

    def test_fault_sweep_driver_leaves_no_process(self, tmp_path):
        output = _run_in_own_session(tmp_path, _SWEEP_LIFETIME_SCRIPT)
        assert output.split()[-2:] == ["ok", "2"], output


class TestAmbientScope:
    def test_scope_installs_and_restores(self):
        assert active_executor_config() is None
        executor = ParallelExecutor(workers=3)
        with executor_scope(executor):
            config = active_executor_config()
            assert config["workers"] == 3
        assert active_executor_config() is None

    def test_none_scope_is_noop(self):
        with executor_scope(None):
            assert active_executor_config() is None

    def test_resolve_executor_precedence(self):
        """The sweep drivers' lookup: an explicit executor wins, then a
        fresh pool for ``workers > 1``, then the ambient scope."""
        from repro.exec import resolve_executor

        explicit = ParallelExecutor(workers=2)
        ambient = ParallelExecutor(workers=3)
        assert resolve_executor(1, None) is None
        assert resolve_executor(4, explicit) is explicit
        assert resolve_executor(2, None).workers == 2
        with executor_scope(ambient):
            assert resolve_executor(1, None) is ambient
            assert resolve_executor(1, explicit) is explicit
            assert resolve_executor(4, None).workers == 4

    def test_fingerprint_records_executor(self):
        from repro.obs.registry import _environment_fingerprint

        with executor_scope(ParallelExecutor(workers=2)):
            env = _environment_fingerprint()
        assert env["executor"]["workers"] == 2
        assert "executor" not in _environment_fingerprint()


class TestDriverEquality:
    @pytest.fixture(scope="class")
    def sweep_kwargs(self, tiny_config):
        return dict(
            arch=tiny_config.arch,
            dataset=tiny_config.dataset,
            scale_name=tiny_config.scale.name,
            timesteps=tiny_config.timesteps,
            fault_kinds=["prune"],
            ladders={"prune": (0.0, 0.3)},
            seed=0,
        )

    @pytest.mark.smoke
    def test_fault_sweep_identical_across_workers(
        self, sweep_kwargs, tiny_context
    ):
        from repro.experiments import run_fault_sweep

        serial = run_fault_sweep(**sweep_kwargs, workers=1)
        assert serial["status"] == "ok" and serial["failures"] == []
        blob = json.dumps(serial, sort_keys=True)
        for workers in (2, 4):
            executor = _StatsExecutor(workers=workers)
            parallel = run_fault_sweep(**sweep_kwargs, executor=executor)
            assert executor.last_stats.mode == "parallel"
            assert json.dumps(parallel, sort_keys=True) == blob
        assert multiprocessing.active_children() == []

    @pytest.mark.stress
    def test_fault_sweep_identical_under_chaos(
        self, sweep_kwargs, tiny_context
    ):
        from repro.experiments import run_fault_sweep

        serial = run_fault_sweep(**sweep_kwargs, workers=1)
        chaotic = run_fault_sweep(
            **sweep_kwargs,
            executor=ParallelExecutor(
                workers=2, chaos=ChaosSpec.kill_task(1, attempts=1)
            ),
        )
        assert json.dumps(chaotic, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    @pytest.mark.smoke
    def test_observed_fault_sweep_matches_serial(
        self, sweep_kwargs, tiny_context, tmp_path
    ):
        from repro.experiments import run_fault_sweep
        from repro.obs.diff import diff_run_dirs

        runs = {}
        for workers in (1, 2):
            run_dir = str(tmp_path / f"w{workers}")
            with observe(run_dir, smoke=True, seed=0):
                curves = run_fault_sweep(**sweep_kwargs, workers=workers)
            with open(os.path.join(run_dir, "metrics.json")) as fp:
                counters = json.load(fp)["counters"]
            faults = [
                {k: v for k, v in record.items() if k != "ts"}
                for record in _read_jsonl(os.path.join(run_dir, "faults.jsonl"))
            ]
            runs[workers] = (json.dumps(curves, sort_keys=True), counters, faults)

        (curves1, counters1, faults1), (curves2, counters2, faults2) = runs[1], runs[2]
        assert curves1 == curves2
        assert faults1 and faults1 == faults2

        def non_exec(counters):
            # exec.* describes scheduling (map count, serial downgrades).
            return {k: v for k, v in counters.items() if not k.startswith("exec.")}

        assert non_exec(counters1) == non_exec(counters2)
        assert counters2["exec.downgrades"] == 1
        diff = diff_run_dirs(str(tmp_path / "w1"), str(tmp_path / "w2"))
        assert diff.ok, diff.render()

    def test_seed_sweep_identical_across_workers(self, tiny_config):
        from repro.experiments.multiseed import seed_sweep

        serial = seed_sweep(tiny_config, [0, 1], fine_tune=False, workers=1)
        parallel = seed_sweep(tiny_config, [0, 1], fine_tune=False, workers=2)
        assert serial.status == "ok" and not serial.failed_seeds
        assert parallel.seeds == serial.seeds
        assert parallel.dnn == serial.dnn
        assert parallel.conversion == serial.conversion
        assert parallel.snn == serial.snn

    def test_seed_sweep_render_mentions_partial(self, tiny_config):
        from repro.experiments.multiseed import (
            SeedSweepResult,
            render_seed_sweep,
        )

        result = SeedSweepResult(
            config=tiny_config,
            seeds=[0], dnn=[50.0], conversion=[40.0], snn=[45.0],
            failed_seeds=[{"seed": 1, "kind": "poison", "message": "x",
                           "index": 1, "attempts": 1, "worker_crashes": 2}],
        )
        assert result.status == "partial"
        assert "PARTIAL" in render_seed_sweep(result)


class TestFaultSweepDedup:
    """run_fault_sweep maps one task per distinct (model, FaultSpec):
    every ladder's level 0 is the same null spec, so each model's clean
    accuracy is evaluated once and fills all of its level-0 cells."""

    KINDS = ["prune", "spike_drop"]
    LADDERS = {"prune": (0.0, 0.3), "spike_drop": (0.0, 0.2)}
    # dnn/converted/finetuned clean + prune@0.3, converted/finetuned spike_drop@0.2
    DISTINCT = 8
    CELLS = 2 * 3 + 2 * 2

    @pytest.fixture(scope="class")
    def sweep(self, tiny_config, tiny_context):
        from repro.experiments import run_fault_sweep

        def run(executor, fault_kinds=self.KINDS, ladders=self.LADDERS):
            return run_fault_sweep(
                arch=tiny_config.arch,
                dataset=tiny_config.dataset,
                scale_name=tiny_config.scale.name,
                timesteps=tiny_config.timesteps,
                fault_kinds=fault_kinds,
                ladders=ladders,
                seed=0,
                executor=executor,
            )

        return run

    @pytest.fixture(scope="class")
    def clean(self, tiny_config, tiny_context):
        from repro.experiments.pipeline import convert_only, run_pipeline
        from repro.train import evaluate_dnn, evaluate_snn

        snns = {
            "converted": convert_only(tiny_config, context=tiny_context).snn,
            "finetuned": run_pipeline(tiny_config).snn,
        }
        clean = {"dnn": evaluate_dnn(tiny_context.model, tiny_context.test_loader()) * 100.0}
        for key, snn in snns.items():
            clean[key] = evaluate_snn(snn, tiny_context.test_loader()) * 100.0
        return clean

    def test_maps_distinct_tasks_and_shares_clean_point(self, sweep, clean):
        executor = _StatsExecutor(workers=2)
        result = sweep(executor)
        assert executor.last_stats.mode == "parallel"
        assert executor.last_stats.tasks == self.DISTINCT
        assert result["status"] == "ok" and result["failures"] == []
        cells = [
            value for curve in result["curves"]
            for key in ("dnn", "converted", "finetuned")
            for value in (curve[key] or [])
        ]
        assert len(cells) == self.CELLS
        for curve in result["curves"]:
            for key in ("dnn", "converted", "finetuned"):
                if curve[key] is not None:
                    assert curve[key][0] == clean[key], (curve["fault"], key)
        assert multiprocessing.active_children() == []

    def test_repeated_level_is_one_task(self, sweep):
        executor = _StatsExecutor(workers=2)
        result = sweep(executor, fault_kinds=["prune"], ladders={"prune": (0.3, 0.3)})
        assert executor.last_stats.tasks == 3
        (curve,) = result["curves"]
        for key in ("dnn", "converted", "finetuned"):
            assert curve[key][0] == curve[key][1]
        assert multiprocessing.active_children() == []

    @pytest.mark.stress
    def test_poisoned_clean_task_blanks_every_level0_cell(self, sweep):
        from repro.experiments.fault_sweep import render_fault_sweep

        # Task order follows the first cell of each task: the prune
        # ladder's level 0 makes tasks 0-2 the dnn/converted/finetuned
        # clean evaluations.
        clean_index = 1
        executor = _StatsExecutor(
            workers=2, chaos=ChaosSpec.kill_task(clean_index, attempts=2)
        )
        assert executor.poison_threshold == 2
        result = sweep(executor)
        assert result["status"] == "partial"
        (failure,) = result["failures"]
        assert failure["index"] == clean_index
        assert failure["kind"] == "poison"
        assert failure["point"] == ["converted", "prune", 0.0]
        for curve in result["curves"]:
            assert curve["converted"][0] is None
            assert curve["converted"][1] is not None
            assert curve["finetuned"][0] is not None
        assert "PARTIAL SWEEP" in render_fault_sweep(result)
        assert multiprocessing.active_children() == []


class TestDiffIntegration:
    def test_cross_worker_diff_is_informational(self, tmp_path):
        from repro.obs import observe
        from repro.obs import metrics as obs_metrics
        from repro.obs.diff import diff_run_dirs
        from repro.obs.registry import registration_enabled

        if not registration_enabled():
            pytest.skip("run registry disabled in this environment")

        dirs = []
        for name, workers in (("w1", 1), ("w2", 2)):
            run_dir = str(tmp_path / name)
            executor = ParallelExecutor(workers=workers) if workers > 1 else None
            with executor_scope(executor):
                with observe(run_dir, smoke=True, seed=0):
                    obs_metrics.gauge("exec.workers", workers)
                    executor_obj = executor or ParallelExecutor(workers=1)
                    outcome = executor_obj.map(_checksum_task, _TASKS)
                    assert outcome.ok
            dirs.append(run_dir)

        diff = diff_run_dirs(dirs[0], dirs[1])
        assert diff.ok, diff.render()
        env_rows = [d for d in diff.deltas if d.name.startswith("env:executor")]
        assert env_rows, "expected informational env:executor rows"
        assert all(not d.significant and not d.regressed for d in env_rows)

    def test_serial_vs_parallel_observed_diff_is_clean(self, tmp_path):
        from repro.obs.diff import diff_run_dirs

        run1, _ = _run_observed_map(tmp_path, "base", 1)
        run4, _ = _run_observed_map(tmp_path, "cand", 4)
        diff = diff_run_dirs(run1, run4)
        assert diff.ok, diff.render()
        exec_rows = [d for d in diff.deltas if "exec." in d.name]
        assert {"counter:exec.downgrades", "gauge:exec.workers"} <= {
            d.name for d in exec_rows
        }
        assert all(d.direction == "skip" for d in exec_rows)

    def test_same_config_diff_has_no_executor_rows(self, tmp_path):
        from repro.obs import observe
        from repro.obs import metrics as obs_metrics
        from repro.obs.diff import diff_run_dirs

        dirs = []
        for name in ("a", "b"):
            run_dir = str(tmp_path / name)
            with executor_scope(ParallelExecutor(workers=2)):
                with observe(run_dir, smoke=True, seed=0):
                    obs_metrics.gauge("exec.workers", 2)
            dirs.append(run_dir)
        diff = diff_run_dirs(dirs[0], dirs[1])
        assert diff.ok
        assert not [d for d in diff.deltas if d.name.startswith("env:executor")]


class TestDelayInterrupts:
    def test_sigint_deferred_to_block_exit(self):
        from repro.utils import delay_interrupts

        witness = []
        with pytest.raises(KeyboardInterrupt):
            with delay_interrupts():
                signal.raise_signal(signal.SIGINT)
                witness.append("survived")  # signal must not fire here
        assert witness == ["survived"]

    def test_nested_blocks_defer_to_outermost(self):
        from repro.utils import delay_interrupts

        witness = []
        with pytest.raises(KeyboardInterrupt):
            with delay_interrupts():
                with delay_interrupts():
                    signal.raise_signal(signal.SIGINT)
                    witness.append("inner")
                witness.append("between")  # inner exit re-buffers in outer
        assert witness == ["inner", "between"]

    def test_no_signal_no_effect(self):
        from repro.utils import delay_interrupts

        with delay_interrupts():
            pass


class TestKillMidCheckpoint:
    def test_kill_during_checkpoint_write_leaves_consistent_pair(
        self, tiny_config, tmp_path, monkeypatch
    ):
        """A SIGINT landing inside the checkpoint write must be deferred
        until the weights archive AND the progress record are both on
        disk, and the killed run must resume cleanly."""
        import repro.utils.checkpoint as checkpoint_module
        from repro.experiments.pipeline import (
            clear_pipeline_cache,
            run_pipeline,
        )
        from repro.utils import load_checkpoint

        ckdir = str(tmp_path / "ck")
        original_savez = checkpoint_module.np.savez
        fired = []

        def interrupting_savez(*args, **kwargs):
            if not fired:
                fired.append(True)
                signal.raise_signal(signal.SIGINT)  # deferred, not raised
            return original_savez(*args, **kwargs)

        monkeypatch.setattr(checkpoint_module.np, "savez", interrupting_savez)
        clear_pipeline_cache()
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(tiny_config, checkpoint_dir=ckdir)
        monkeypatch.setattr(checkpoint_module.np, "savez", original_savez)

        # Both halves of the pair exist and agree despite the kill.
        state = json.load(
            open(os.path.join(ckdir, "pipeline_state.json"))
        )
        assert state["completed_epochs"] == 0
        npz_files = [f for f in os.listdir(ckdir) if f.endswith(".npz")]
        assert len(npz_files) == 1
        with np.load(os.path.join(ckdir, npz_files[0])) as archive:
            assert archive.files  # complete, readable archive

        clear_pipeline_cache()
        result = run_pipeline(tiny_config, checkpoint_dir=ckdir, resume=True)
        assert result.snn_accuracy is not None
        state = json.load(
            open(os.path.join(ckdir, "pipeline_state.json"))
        )
        assert state["completed_epochs"] == state["total_epochs"]
        clear_pipeline_cache()
