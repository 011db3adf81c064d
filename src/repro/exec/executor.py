"""Fault-tolerant multi-process task executor.

``ParallelExecutor`` shards an indexed task list over a pool of
``multiprocessing`` workers while preserving the repo's bitwise
determinism contract: results are assembled **by task index**, so the
output of :meth:`ParallelExecutor.map` is identical to serial execution
regardless of worker count, scheduling, retries, or completion order.
Reductions go through :func:`repro.exec.reduce.tree_reduce` for the
same reason.

Robustness is the headline, not raw speed:

* **Supervision** — every worker runs a daemon heartbeat thread; the
  parent detects dead workers (segfault / OOM kill / ``os._exit``),
  stale heartbeats, and per-task wall-clock timeouts, kills the
  offender, and re-dispatches its in-flight task with bounded retries
  and exponential backoff.
* **Poison quarantine** — a task that takes down ``poison_threshold``
  workers in a row is quarantined: recorded as a failure, never
  retried again, and the sweep completes with status ``"partial"``
  instead of hanging or crash-looping.
* **Graceful degradation** — ``workers=1``, an unavailable start
  method, a pool that fails to spawn, or a pool that exhausts its
  restart budget all fall back to the serial path with a logged
  downgrade and the same results.
* **Observed runs are serial** — while ``repro.obs`` is enabled, ``map``
  takes the serial path in the parent process, so an observed run's
  artefacts are exactly a serial run's at any worker count.  Workers
  never talk to obs: they quiesce everything they inherit.

Deterministic failure injection for all of the above lives in
:class:`repro.faults.chaos.ChaosSpec` (kill/hang keyed by task index
and attempt number, applied worker-side).
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..obs.logging import get_logger
from .reduce import tree_reduce

__all__ = [
    "ExecutorError",
    "TaskFailure",
    "ExecStats",
    "MapResult",
    "ParallelExecutor",
]

_LOG = get_logger("repro.exec")

_POLL_INTERVAL_S = 0.05


class ExecutorError(RuntimeError):
    """Raised when a map that must be complete finished ``partial``."""


@dataclass(frozen=True)
class TaskFailure:
    """Terminal record for a task that could not produce a result."""

    index: int
    kind: str  # "error" | "poison" | "timeout" | "lost"
    message: str
    attempts: int
    worker_crashes: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "worker_crashes": self.worker_crashes,
        }


@dataclass
class ExecStats:
    """Executor-side accounting for one ``map`` call."""

    workers: int
    start_method: str
    mode: str = "serial"  # "serial" | "parallel"
    downgraded: bool = False
    downgrade_reason: str = ""
    tasks: int = 0
    dispatched: int = 0
    completed: int = 0
    retried: int = 0
    errors: int = 0
    crashes: int = 0
    timeouts: int = 0
    restarts: int = 0
    quarantined: int = 0
    failed: int = 0
    serial_fallback_tasks: int = 0
    duration_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)


@dataclass
class MapResult:
    """Outcome of :meth:`ParallelExecutor.map`.

    ``results[i]`` corresponds to ``tasks[i]``; failed/quarantined
    indices hold ``None`` and are described in ``failures``.
    """

    results: List[Any]
    failures: Dict[int, TaskFailure] = field(default_factory=dict)
    stats: Optional[ExecStats] = None

    @property
    def status(self) -> str:
        return "partial" if self.failures else "ok"

    @property
    def ok(self) -> bool:
        return not self.failures

    def values_or_raise(self) -> List[Any]:
        if self.failures:
            summary = "; ".join(
                f"task {f.index}: {f.kind} ({f.message})"
                for f in sorted(self.failures.values(), key=lambda f: f.index)
            )
            raise ExecutorError(f"parallel map finished partial: {summary}")
        return self.results


class _Worker:
    __slots__ = (
        "slot", "process", "queue", "conn",
        "busy", "dispatched_at", "last_beat", "dead",
    )

    def __init__(self, slot: int, process, queue, conn) -> None:
        self.slot = slot
        self.process = process
        self.queue = queue
        self.conn = conn  # parent end of this worker's private result pipe
        self.busy: Optional[Tuple[int, int]] = None  # (index, attempt)
        self.dispatched_at: float = 0.0
        self.last_beat: float = time.monotonic()
        self.dead = False


def _quiesce_child_observability() -> None:
    """Disable obs sinks and ambient fan-out inherited across fork/spawn.

    Workers must never write to the parent's JSONL sinks (shared file
    offsets after fork would interleave corrupt records) or register
    runs.  Metrics get a fresh registry so no lock inherited mid-hold
    from a parent thread can deadlock the child.  The ambient executor
    is cleared too: a worker re-fanning-out (e.g. Algorithm 1 inside a
    per-seed pipeline task) would try to spawn children of a daemonic
    process.

    The inherited health monitor and profiler hooks are dropped too,
    so no parent file handle (shared offset!) stays reachable.
    """
    os.environ["REPRO_RUNS_DISABLE"] = "1"
    try:
        import repro.exec as exec_pkg

        exec_pkg._AMBIENT = None
    except Exception:
        pass
    try:
        from ..obs import core as obs_core

        state = obs_core.state()
        state.enabled = False
        for attr in ("_events_fp", "_trace_fp"):
            if hasattr(state, attr):
                setattr(state, attr, None)
    except Exception:
        pass
    try:
        obs_metrics.reset_registry()
    except Exception:
        pass
    try:
        from ..obs import trace as obs_trace

        obs_trace.reset(counter=True)
    except Exception:
        pass
    try:
        from ..obs import health as obs_health

        obs_health.quiesce_forked()
    except Exception:
        pass
    try:
        from ..obs import profile as obs_profile

        obs_profile.quiesce_forked()
    except Exception:
        pass


def _worker_main(
    fn: Callable[[Any], Any],
    task_queue,
    conn,
    heartbeat_interval_s: float,
    chaos,
    initializer: Optional[Callable[..., None]],
    initargs: Tuple[Any, ...],
) -> None:
    _quiesce_child_observability()
    if initializer is not None:
        initializer(*initargs)

    # Each worker owns a private result pipe.  A worker dying mid-write
    # (segfault, OOM kill, chaos ``os._exit``) can corrupt *its own*
    # channel only; the supervisor attributes the broken pipe to this
    # worker's in-flight task instead of losing everyone's messages, as
    # a shared result queue would.  The heartbeat thread shares the
    # pipe with the task loop, so sends are serialised by a lock.
    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(message) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _beat() -> None:
        while not stop.is_set():
            if not _send(("heartbeat",)):
                return
            stop.wait(heartbeat_interval_s)

    beat_thread = threading.Thread(target=_beat, name="exec-heartbeat", daemon=True)
    beat_thread.start()
    _send(("ready",))

    while True:
        message = task_queue.get()
        if message is None:
            break
        index, attempt, payload = message
        if chaos is not None:
            if chaos.should_kill(index, attempt):
                os._exit(chaos.exit_code)
            if chaos.should_hang(index, attempt):
                time.sleep(chaos.hang_seconds)
        try:
            value = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - forwarded to supervisor
            detail = f"{type(exc).__name__}: {exc}"
            if not _send(("error", index, attempt, detail, traceback.format_exc())):
                break
        else:
            if chaos is not None and chaos.should_kill_after(index, attempt):
                os._exit(chaos.exit_code)
            if not _send(("result", index, attempt, value)):
                break
    stop.set()
    try:
        conn.close()
    except OSError:
        pass


class ParallelExecutor:
    """Task-sharded map/reduce with worker supervision.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` selects the serial path outright.
    start_method:
        ``multiprocessing`` start method (``fork``/``spawn``/
        ``forkserver``).  ``None`` prefers ``fork`` when available.
        An unavailable method downgrades to serial (logged), it never
        raises.
    max_retries:
        Extra attempts after a task raises an exception (crashes are
        governed by ``poison_threshold`` instead).
    poison_threshold:
        Number of workers a single task may kill (crash or timeout)
        before it is quarantined.
    task_timeout_s:
        Per-task wall-clock budget; ``None`` disables timeout kills.
    heartbeat_timeout_s:
        A worker silent for this long is presumed hung and replaced.
    max_worker_restarts:
        Total replacement workers allowed per ``map`` before the
        executor downgrades the remainder to serial.  Defaults to
        ``3 * workers``.
    chaos:
        Optional :class:`repro.faults.chaos.ChaosSpec` applied inside
        workers (ignored, with a log line, on the serial path).
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        start_method: Optional[str] = None,
        max_retries: int = 2,
        poison_threshold: int = 2,
        task_timeout_s: Optional[float] = None,
        heartbeat_interval_s: float = 0.1,
        heartbeat_timeout_s: float = 30.0,
        backoff_base_s: float = 0.02,
        backoff_max_s: float = 0.5,
        max_worker_restarts: Optional[int] = None,
        chaos=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        self.workers = int(workers)
        self.start_method = start_method
        self.max_retries = int(max_retries)
        self.poison_threshold = int(poison_threshold)
        self.task_timeout_s = task_timeout_s
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.max_worker_restarts = (
            3 * self.workers if max_worker_restarts is None else int(max_worker_restarts)
        )
        self.chaos = chaos

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resolved_start_method(self) -> str:
        if self.workers <= 1:
            return "serial"
        available = multiprocessing.get_all_start_methods()
        if self.start_method is not None:
            return self.start_method if self.start_method in available else "serial"
        if "fork" in available:
            return "fork"
        return available[0] if available else "serial"

    def config_dict(self) -> Dict[str, Any]:
        """Executor fingerprint recorded in the run registry."""
        return {
            "workers": self.workers,
            "start_method": self.resolved_start_method(),
            "max_retries": self.max_retries,
            "poison_threshold": self.poison_threshold,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        label: str = "map",
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> MapResult:
        """Apply ``fn`` to every task, preserving task order in results.

        An observed run (``repro.obs`` enabled) always maps serially in
        this process: its artefacts then are a serial run's, whatever
        the worker count.
        """
        items = list(tasks)
        stats = ExecStats(
            workers=self.workers,
            start_method=self.resolved_start_method(),
            tasks=len(items),
        )
        from ..obs import core as obs_core
        from ..obs import trace as obs_trace

        started = time.monotonic()
        with obs_trace.span(
            "exec.map", label=label, workers=self.workers, tasks=len(items)
        ):
            if self.workers <= 1 or len(items) <= 1:
                result = self._map_serial(fn, items, stats, initializer, initargs)
            elif obs_core.is_enabled():
                self._note_downgrade(stats, "observed run")
                result = self._map_serial(fn, items, stats, initializer, initargs)
            else:
                method = self.resolved_start_method()
                if method == "serial":
                    self._note_downgrade(
                        stats,
                        f"start method {self.start_method!r} unavailable "
                        f"(have {multiprocessing.get_all_start_methods()})",
                    )
                    result = self._map_serial(fn, items, stats, initializer, initargs)
                else:
                    result = self._map_parallel(
                        fn, items, stats, method, label, initializer, initargs
                    )
        stats.duration_s = time.monotonic() - started
        self._flush_telemetry(stats, label)
        self._surface_health(result, label)
        return result

    def map_reduce(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        combine: Callable[[Any, Any], Any],
        *,
        label: str = "map_reduce",
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> Any:
        """Map then fixed-order tree-reduce; raises on a partial map."""
        outcome = self.map(fn, tasks, label=label, initializer=initializer, initargs=initargs)
        values = outcome.values_or_raise()
        return tree_reduce(combine, values)

    # ------------------------------------------------------------------
    # Serial path
    # ------------------------------------------------------------------
    def _map_serial(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        stats: ExecStats,
        initializer: Optional[Callable[..., None]],
        initargs: Tuple[Any, ...],
    ) -> MapResult:
        stats.mode = "serial"
        if self.chaos is not None and not self.chaos.is_null:
            _LOG.info("exec: chaos schedule ignored on serial path")
        if initializer is not None:
            initializer(*initargs)
        results: List[Any] = [None] * len(items)
        failures: Dict[int, TaskFailure] = {}
        for index, payload in enumerate(items):
            attempts = 0
            while True:
                attempts += 1
                stats.dispatched += 1
                if attempts > 1:
                    stats.retried += 1
                try:
                    results[index] = fn(payload)
                except Exception as exc:  # noqa: BLE001 - mirrored from workers
                    stats.errors += 1
                    if attempts > self.max_retries:
                        failures[index] = TaskFailure(
                            index=index,
                            kind="error",
                            message=f"{type(exc).__name__}: {exc}",
                            attempts=attempts,
                        )
                        stats.failed += 1
                        break
                else:
                    stats.completed += 1
                    break
        return MapResult(results=results, failures=failures, stats=stats)

    # ------------------------------------------------------------------
    # Parallel path
    # ------------------------------------------------------------------
    def _map_parallel(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        stats: ExecStats,
        method: str,
        label: str,
        initializer: Optional[Callable[..., None]],
        initargs: Tuple[Any, ...],
    ) -> MapResult:
        stats.mode = "parallel"
        try:
            ctx = multiprocessing.get_context(method)
        except ValueError as exc:
            self._note_downgrade(stats, f"get_context({method!r}) failed: {exc}")
            return self._map_serial(fn, items, stats, initializer, initargs)

        n = len(items)
        pool_size = min(self.workers, n)
        workers: List[_Worker] = []

        def _spawn(slot: int) -> _Worker:
            task_queue = ctx.SimpleQueue()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    fn,
                    task_queue,
                    child_conn,
                    self.heartbeat_interval_s,
                    self.chaos,
                    initializer,
                    initargs,
                ),
                daemon=True,
                name=f"repro-exec-{label}-{slot}",
            )
            process.start()
            # Close the child end in the parent so the pipe reports EOF
            # the moment the worker (its only writer) dies.
            child_conn.close()
            return _Worker(slot, process, task_queue, parent_conn)

        try:
            for slot in range(pool_size):
                workers.append(_spawn(slot))
        except Exception as exc:  # noqa: BLE001 - any spawn failure downgrades
            for worker in workers:
                self._kill_worker(worker)
            self._note_downgrade(stats, f"worker spawn failed: {exc}")
            return self._map_serial(fn, items, stats, initializer, initargs)

        results: List[Any] = [None] * n
        done: List[bool] = [False] * n
        failures: Dict[int, TaskFailure] = {}
        attempts = [0] * n  # dispatch count per task
        error_counts = [0] * n
        crash_counts = [0] * n
        pending = deque(range(n))
        delayed: List[Tuple[float, int]] = []  # (ready_at, index) heap
        restarts_used = 0
        settled = 0  # completed + failed

        def _settle_failure(failure: TaskFailure) -> None:
            nonlocal settled
            failures[failure.index] = failure
            stats.failed += 1
            if failure.kind in ("poison", "timeout"):
                stats.quarantined += 1
            settled += 1

        def _record_result(index: int, value: Any) -> None:
            nonlocal settled
            if done[index] or index in failures:
                return  # stale duplicate from a raced re-dispatch
            results[index] = value
            done[index] = True
            stats.completed += 1
            settled += 1

        def _requeue(index: int) -> None:
            delay = min(
                self.backoff_max_s,
                self.backoff_base_s * (2 ** max(0, attempts[index] - 1)),
            )
            heapq.heappush(delayed, (time.monotonic() + delay, index))

        def _handle_worker_loss(worker: _Worker, kind: str, detail: str) -> None:
            nonlocal restarts_used
            if worker.dead:
                return
            worker.dead = True
            self._kill_worker(worker)
            stats.crashes += 1
            if kind == "timeout":
                stats.timeouts += 1
            in_flight = worker.busy
            worker.busy = None
            if in_flight is not None:
                index = in_flight[0]
                if not done[index] and index not in failures:
                    crash_counts[index] += 1
                    if crash_counts[index] >= self.poison_threshold:
                        _settle_failure(
                            TaskFailure(
                                index=index,
                                kind="poison" if kind == "crash" else kind,
                                message=(
                                    f"task killed {crash_counts[index]} workers in a row; "
                                    f"quarantined ({detail})"
                                ),
                                attempts=attempts[index],
                                worker_crashes=crash_counts[index],
                            )
                        )
                        _LOG.warning(
                            f"exec: quarantined poison task {index} after "
                            f"{crash_counts[index]} worker deaths",
                            label=label,
                        )
                    else:
                        _requeue(index)
            if restarts_used < self.max_worker_restarts:
                restarts_used += 1
                stats.restarts += 1
                try:
                    replacement = _spawn(worker.slot)
                except Exception as exc:  # noqa: BLE001
                    _LOG.warning(f"exec: worker respawn failed: {exc}", label=label)
                else:
                    workers[workers.index(worker)] = replacement

        deadline_slack = 4 * _POLL_INTERVAL_S
        while settled < n:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index = heapq.heappop(delayed)
                if not done[index] and index not in failures:
                    pending.append(index)

            for worker in workers:
                if worker.dead or worker.busy is not None or not pending:
                    continue
                index = pending.popleft()
                if done[index] or index in failures:
                    continue
                attempt = attempts[index]
                attempts[index] += 1
                worker.busy = (index, attempt)
                worker.dispatched_at = now
                worker.queue.put((index, attempt, items[index]))
                stats.dispatched += 1
                if attempt > 0:
                    stats.retried += 1

            live_conns = {w.conn: w for w in workers if not w.dead}
            try:
                ready = multiprocessing.connection.wait(
                    list(live_conns), timeout=_POLL_INTERVAL_S
                )
            except OSError:
                ready = []
            for conn in ready:
                worker = live_conns[conn]
                # Drain everything buffered on this worker's pipe.  Any
                # failure to read (EOF after death, partial pickle from
                # a kill mid-write) is attributed to *this* worker only.
                while not worker.dead:
                    try:
                        if not conn.poll():
                            break
                        message = conn.recv()
                    except (EOFError, OSError):
                        code = worker.process.exitcode
                        _handle_worker_loss(
                            worker, "crash",
                            f"result channel closed (exit code {code})",
                        )
                        break
                    except Exception as exc:  # noqa: BLE001 - corrupt frame
                        _handle_worker_loss(
                            worker, "crash", f"result channel corrupt: {exc}"
                        )
                        break
                    kind = message[0]
                    if kind in ("heartbeat", "ready"):
                        worker.last_beat = time.monotonic()
                    elif kind == "result":
                        _, index, attempt, value = message
                        _record_result(index, value)
                        if worker.busy == (index, attempt):
                            worker.busy = None
                    elif kind == "error":
                        _, index, attempt, detail, _tb = message
                        if worker.busy == (index, attempt):
                            worker.busy = None
                        if not done[index] and index not in failures:
                            error_counts[index] += 1
                            stats.errors += 1
                            if error_counts[index] > self.max_retries:
                                _settle_failure(
                                    TaskFailure(
                                        index=index,
                                        kind="error",
                                        message=detail,
                                        attempts=attempts[index],
                                        worker_crashes=crash_counts[index],
                                    )
                                )
                            else:
                                _requeue(index)

            # --- supervision sweep -----------------------------------
            now = time.monotonic()
            for worker in list(workers):
                if worker.dead:
                    continue
                if not worker.process.is_alive():
                    code = worker.process.exitcode
                    _handle_worker_loss(worker, "crash", f"worker exited with code {code}")
                    continue
                if (
                    self.task_timeout_s is not None
                    and worker.busy is not None
                    and now - worker.dispatched_at > self.task_timeout_s + deadline_slack
                ):
                    _handle_worker_loss(
                        worker,
                        "timeout",
                        f"task exceeded {self.task_timeout_s:.3f}s wall clock",
                    )
                    continue
                if now - worker.last_beat > self.heartbeat_timeout_s:
                    _handle_worker_loss(
                        worker,
                        "timeout" if worker.busy is not None else "crash",
                        f"no heartbeat for {self.heartbeat_timeout_s:.3f}s",
                    )

            if all(w.dead for w in workers):
                # Pool is gone and the restart budget is spent: finish
                # the remainder serially rather than losing the sweep.
                self._note_downgrade(stats, "worker pool exhausted restart budget")
                if initializer is not None:
                    initializer(*initargs)
                for index in range(n):
                    if done[index] or index in failures:
                        continue
                    if crash_counts[index] > 0:
                        # A task that already killed workers is not safe
                        # to run in the parent process.
                        _settle_failure(
                            TaskFailure(
                                index=index,
                                kind="poison",
                                message="crash history; not retried in parent after pool loss",
                                attempts=attempts[index],
                                worker_crashes=crash_counts[index],
                            )
                        )
                        continue
                    stats.serial_fallback_tasks += 1
                    stats.dispatched += 1
                    try:
                        value = fn(items[index])
                    except Exception as exc:  # noqa: BLE001
                        stats.errors += 1
                        _settle_failure(
                            TaskFailure(
                                index=index,
                                kind="error",
                                message=f"{type(exc).__name__}: {exc}",
                                attempts=attempts[index] + 1,
                            )
                        )
                    else:
                        _record_result(index, value)
                break

        self._shutdown_pool(workers)
        return MapResult(results=results, failures=failures, stats=stats)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _kill_worker(worker: _Worker) -> None:
        process = worker.process
        try:
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
            if process.is_alive():
                process.kill()
                process.join(timeout=0.5)
        except Exception:
            pass
        try:
            process.close()
        except Exception:
            pass
        try:
            worker.conn.close()
        except Exception:
            pass

    def _shutdown_pool(self, workers: List[_Worker]) -> None:
        for worker in workers:
            if worker.dead:
                continue
            try:
                worker.queue.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            if worker.dead:
                continue
            try:
                worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:
                pass
            self._kill_worker(worker)

    def _note_downgrade(self, stats: ExecStats, reason: str) -> None:
        if not stats.downgraded:
            stats.downgraded = True
            stats.downgrade_reason = reason
            obs_metrics.inc("exec.downgrades")
            _LOG.warning(f"exec: downgraded to serial execution: {reason}")

    def _flush_telemetry(self, stats: ExecStats, label: str) -> None:
        try:
            obs_metrics.gauge("exec.workers", stats.workers)
            obs_metrics.gauge("exec.pool_duration_s", stats.duration_s, label=label)
            obs_metrics.inc("exec.maps")
        except Exception:
            pass

    def _surface_health(self, result: MapResult, label: str) -> None:
        """Surface permanently failed tasks as a health alert
        (``alerts.jsonl``) when a monitor is installed — i.e. for
        observed runs.  Once per pathological stretch: a clean map
        under the same label re-arms the rule."""
        try:
            from ..obs import health as obs_health

            monitor = obs_health.active()
            if monitor is None:
                return
            plain_failures = sum(
                1 for f in result.failures.values() if f.kind == "error"
            )
            detail = "; ".join(
                f"task {f.index}: {f.kind} ({f.message})"
                for f in sorted(result.failures.values(), key=lambda f: f.index)[:4]
            )
            monitor.observe_exec(label, failures=plain_failures, detail=detail or None)
        except Exception:
            pass
