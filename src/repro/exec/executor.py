"""Fault-tolerant multi-process task executor.

``ParallelExecutor.map`` shards an indexed task list over worker
processes and assembles results **by task index**, so its output is
bitwise identical to a serial run at any worker count, whatever the
scheduling, retries or completion order.  Reductions go through the
fixed-order :func:`repro.exec.reduce.tree_reduce` for the same reason.

Each worker slot is one process holding at most one task over a
private duplex pipe, and the parent waits on every pipe and process
sentinel at once.  A dead worker is charged to the task it held and
respawned; a task past ``task_timeout_s`` has its worker killed; a task
that kills ``poison_threshold`` workers is quarantined.  ``workers=1``,
an observed run, an unavailable start method, a pool that fails to
spawn and a spent restart budget all fall back to running tasks in this
process, with a logged downgrade and the same results.  Deterministic
failure injection lives in :class:`repro.faults.chaos.ChaosSpec`.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.logging import get_logger
from .reduce import tree_reduce

__all__ = ["ExecutorError", "TaskFailure", "ExecStats", "MapResult", "ParallelExecutor"]

_LOG = get_logger("repro.exec")


class ExecutorError(RuntimeError):
    """Raised when a map that must be complete finished ``partial``."""


@dataclass(frozen=True)
class TaskFailure:
    """Terminal record for a task that could not produce a result."""

    index: int
    kind: str  # "error" | "poison" | "timeout"
    message: str
    attempts: int
    worker_crashes: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class ExecStats:
    """Executor-side accounting for one ``map`` call."""

    workers: int
    start_method: str
    mode: str = "serial"  # "serial" | "parallel"
    downgraded: bool = False
    downgrade_reason: str = ""
    tasks: int = 0
    retried: int = 0
    crashes: int = 0
    timeouts: int = 0
    restarts: int = 0
    failed: int = 0
    serial_fallback_tasks: int = 0
    duration_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


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


@dataclass
class _Slot:
    """One worker process, holding at most one task, and the parent's end
    of its private duplex pipe.  A worker dying mid-reply breaks only its
    own pipe, so the loss is charged to this slot's task and no other."""

    process: Any
    conn: Any
    task: Optional[int] = None
    deadline: float = math.inf  # monotonic time the held task must finish by

    def stop(self) -> Optional[int]:
        """Kill the worker if it still runs, reap it, return its exit code."""
        self.process.kill()
        self.process.join()
        code = self.process.exitcode
        self.process.close()
        self.conn.close()
        return code


def _worker_main(
    fn: Callable[[Any], Any], conn, chaos, setup: Optional[Callable]
) -> None:
    """Answer each ``(index, attempt, payload)`` message until ``None``."""
    from .. import exec as exec_pkg

    obs.quiesce_forked()
    exec_pkg._AMBIENT = None  # a daemonic worker cannot fan out again
    if setup is not None:
        setup()
    for index, attempt, payload in iter(conn.recv, None):
        if chaos is not None:
            if chaos.should_kill(index, attempt):
                os._exit(chaos.exit_code)
            if chaos.should_hang(index, attempt):
                time.sleep(chaos.hang_seconds)
        try:
            value = fn(payload)
        except Exception as exc:  # noqa: BLE001 - forwarded to supervisor
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        else:
            if chaos is not None and chaos.should_kill_after(index, attempt):
                os._exit(chaos.exit_code)
            conn.send(("result", value))


class ParallelExecutor:
    """Task-sharded map/reduce with worker supervision.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` selects the serial path outright.  One ``map``
        respawns at most ``3 * workers`` lost workers, then finishes
        the remaining tasks serially.
    start_method:
        ``multiprocessing`` start method; ``None`` prefers ``fork`` when
        available.  An unavailable method downgrades to serial (logged).
    max_retries:
        Extra attempts after a task raises an exception (crashes are
        governed by ``poison_threshold`` instead).
    poison_threshold:
        Number of workers a single task may kill (crash or timeout)
        before it is quarantined.
    task_timeout_s:
        Per-task wall-clock budget; ``None`` disables timeout kills.
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
        self.chaos = None if chaos is None or chaos.is_null else chaos

    def resolved_start_method(self) -> str:
        if self.workers <= 1:
            return "serial"
        available = multiprocessing.get_all_start_methods()
        method = self.start_method or ("fork" if "fork" in available else available[0])
        return method if method in available else "serial"

    def config_dict(self) -> Dict[str, Any]:
        """Executor fingerprint recorded in the run registry."""
        return {
            "workers": self.workers,
            "start_method": self.resolved_start_method(),
            "max_retries": self.max_retries,
            "poison_threshold": self.poison_threshold,
        }

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

        An observed run (``repro.obs`` enabled) maps serially in this
        process, so its artefacts are a serial run's at any worker count.
        """
        items = list(tasks)
        setup = None if initializer is None else partial(initializer, *initargs)
        method = self.resolved_start_method()
        stats = ExecStats(workers=self.workers, start_method=method, tasks=len(items))
        result = MapResult(results=[None] * len(items), stats=stats)
        todo: Sequence[int] = range(len(items))  # indices to run in this process
        started = time.monotonic()
        with obs_trace.span(
            "exec.map", label=label, workers=self.workers, tasks=len(items)
        ):
            if self.workers > 1 and len(items) > 1:
                if obs.is_enabled():
                    self._note_downgrade(stats, "observed run")
                elif method == "serial":
                    self._note_downgrade(
                        stats,
                        f"start method {self.start_method!r} unavailable "
                        f"(have {multiprocessing.get_all_start_methods()})",
                    )
                else:
                    todo = self._map_parallel(fn, items, result, method, label, setup)
            if stats.mode == "serial" and self.chaos is not None:
                _LOG.info("exec: chaos schedule ignored on serial path")
            if todo and setup is not None:
                setup()
            for index in todo:
                for attempt in range(self.max_retries + 1):
                    stats.retried += attempt > 0
                    try:
                        result.results[index] = fn(items[index])
                        break
                    except Exception as exc:  # noqa: BLE001 - mirrored from workers
                        error = f"{type(exc).__name__}: {exc}"
                else:
                    result.failures[index] = TaskFailure(
                        index, "error", error, self.max_retries + 1
                    )
        stats.failed = len(result.failures)
        stats.duration_s = time.monotonic() - started
        obs_metrics.gauge("exec.workers", stats.workers)
        obs_metrics.gauge("exec.pool_duration_s", stats.duration_s, label=label)
        obs_metrics.inc("exec.maps")

        # Observed runs surface permanently failed tasks as a health
        # alert; a clean map under the same label re-arms the rule.
        monitor = obs.health.active()
        if monitor is not None:
            ordered = sorted(result.failures.values(), key=lambda f: f.index)
            detail = "; ".join(
                f"task {f.index}: {f.kind} ({f.message})" for f in ordered[:4]
            )
            errors = sum(1 for f in ordered if f.kind == "error")
            monitor.observe_exec(label, failures=errors, detail=detail or None)
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
        return tree_reduce(combine, outcome.values_or_raise())

    def _map_parallel(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        result: MapResult,
        method: str,
        label: str,
        setup: Optional[Callable],
    ) -> Sequence[int]:
        """Fill ``result`` from a supervised pool; return the indices the
        pool left for :meth:`map` to run in this process (every index
        when the pool fails to spawn)."""
        stats = result.stats
        ctx = multiprocessing.get_context(method)

        def spawn() -> _Slot:
            conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(fn, child_conn, self.chaos, setup),
                daemon=True,
                name=f"repro-exec-{label}",
            )
            # Once started, the worker holds the only other end, so the
            # parent's end reads EOF the moment the worker dies.
            with child_conn:
                process.start()
            return _Slot(process, conn)

        slots: List[_Slot] = []
        try:
            for _ in range(min(self.workers, len(items))):
                slots.append(spawn())
        except Exception as exc:  # noqa: BLE001 - any spawn failure downgrades
            self._shutdown(slots)
            self._note_downgrade(stats, f"worker spawn failed: {exc}")
            return range(len(items))
        stats.mode = "parallel"
        attempts = [0] * len(items)  # dispatches per task
        crashes = [0] * len(items)
        pending = deque(range(len(items)))
        restarts_left = 3 * self.workers

        def fail(index: int, kind: str, message: str) -> None:
            result.failures[index] = TaskFailure(
                index, kind, message, attempts[index], crashes[index]
            )
            _LOG.warning(f"exec: task {index} failed ({kind}): {message}", label=label)

        def lose(slot: _Slot, timed_out: bool = False) -> None:
            """Charge a lost worker to the task it held, then respawn it."""
            nonlocal restarts_left
            code = slot.stop()
            slots.remove(slot)
            stats.crashes += 1
            stats.timeouts += timed_out
            index = slot.task
            if index is not None:
                crashes[index] += 1
                if crashes[index] < self.poison_threshold:
                    pending.append(index)
                else:
                    detail = (
                        f"task exceeded {self.task_timeout_s:.3f}s wall clock"
                        if timed_out
                        else f"worker exited with code {code}"
                    )
                    kind = "timeout" if timed_out else "poison"
                    message = f"task killed {crashes[index]} workers in a row"
                    fail(index, kind, f"{message}; quarantined ({detail})")
            if restarts_left:
                restarts_left -= 1
                stats.restarts += 1
                try:
                    slots.append(spawn())
                except Exception as exc:  # noqa: BLE001
                    _LOG.warning(f"exec: worker respawn failed: {exc}", label=label)

        try:
            while slots and (pending or any(s.task is not None for s in slots)):
                for slot in slots:
                    if slot.task is None and pending:
                        index = slot.task = pending.popleft()
                        stats.retried += attempts[index] > 0
                        if self.task_timeout_s is not None:
                            slot.deadline = time.monotonic() + self.task_timeout_s
                        with suppress(OSError):  # a dead worker's sentinel reports it
                            slot.conn.send((index, attempts[index], items[index]))
                        attempts[index] += 1

                wake = min(s.deadline for s in slots)
                ready = multiprocessing.connection.wait(
                    [s.conn for s in slots] + [s.process.sentinel for s in slots],
                    None if wake == math.inf else max(0.0, wake - time.monotonic()),
                )
                now = time.monotonic()
                for slot in list(slots):
                    index = slot.task
                    if slot.conn in ready:
                        try:
                            kind, value = slot.conn.recv()
                        except Exception:  # noqa: BLE001 - EOF or a reply cut short
                            lose(slot)
                            continue
                        slot.task, slot.deadline = None, math.inf
                        if kind == "result":
                            result.results[index] = value
                        elif attempts[index] - crashes[index] <= self.max_retries:
                            pending.append(index)  # every reply so far was an error
                        else:
                            fail(index, "error", value)
                    elif slot.process.sentinel in ready:
                        lose(slot)
                    elif now >= slot.deadline:
                        lose(slot, timed_out=True)
        finally:
            self._shutdown(slots)

        if not pending:
            return []
        # The restart budget is spent: finish the remainder here rather
        # than losing the sweep, except tasks that already killed a
        # worker, which are not safe to run in the parent.
        self._note_downgrade(stats, "worker pool exhausted restart budget")
        reason = "crash history; not retried in parent after pool loss"
        for index in pending:
            if crashes[index]:
                fail(index, "poison", reason)
        remaining = sorted(i for i in pending if not crashes[i])
        stats.serial_fallback_tasks = len(remaining)
        return remaining

    @staticmethod
    def _shutdown(slots: List[_Slot]) -> None:
        """Send every worker ``None``, give the pool 2 s to exit, then reap.
        Closing the parent's end of a pipe is no signal: under ``fork``
        every worker inherits that end, so it never reads EOF."""
        for slot in slots:
            with suppress(OSError):
                slot.conn.send(None)
        deadline = time.monotonic() + 2.0
        for slot in slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            slot.stop()
        slots.clear()

    def _note_downgrade(self, stats: ExecStats, reason: str) -> None:
        if not stats.downgraded:
            stats.downgraded = True
            stats.downgrade_reason = reason
            obs_metrics.inc("exec.downgrades")
            _LOG.warning(f"exec: downgraded to serial execution: {reason}")
