"""``repro.exec`` — fault-tolerant multi-process execution.

Public surface:

* :class:`ParallelExecutor` — ``multiprocessing`` map with
  bitwise-deterministic, task-index-ordered results.  Each worker is
  one process holding one task at a time, watched through its pipe and
  its process sentinel; a worker death or timeout is charged to the
  task it held, with bounded retries, poison-task quarantine and
  graceful serial degradation.
* :func:`tree_reduce` — fixed-order pairwise reduction.
* :class:`ModelStore` / :func:`attach_model` — publish model weights
  once over shared memory instead of pickling them per task.
* :func:`executor_scope` — install an ambient executor that
  ``--workers``-aware call sites (the sweep drivers) pick up through
  :func:`resolve_executor` without explicit plumbing; the run registry
  records :func:`active_executor_config` in its environment fingerprint
  so cross-worker-count diffs are flagged.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .executor import (
    ExecStats,
    ExecutorError,
    MapResult,
    ParallelExecutor,
    TaskFailure,
)
from .reduce import tree_reduce
from .shm import ModelStore, ShmModelHandle, attach_model, clear_attach_cache

__all__ = [
    "ParallelExecutor",
    "ExecutorError",
    "ExecStats",
    "MapResult",
    "TaskFailure",
    "tree_reduce",
    "ModelStore",
    "ShmModelHandle",
    "attach_model",
    "clear_attach_cache",
    "executor_scope",
    "resolve_executor",
    "active_executor_config",
]

_AMBIENT: Optional[ParallelExecutor] = None


def resolve_executor(
    workers: int = 1, executor: Optional[ParallelExecutor] = None
) -> Optional[ParallelExecutor]:
    """The executor a ``workers``-aware call site maps with: ``executor``
    when given, else a fresh pool when ``workers > 1``, else the ambient
    one (``None`` outside any :func:`executor_scope`)."""
    if executor is not None:
        return executor
    return ParallelExecutor(workers=workers) if workers > 1 else _AMBIENT


@contextmanager
def executor_scope(executor: Optional[ParallelExecutor]) -> Iterator[Optional[ParallelExecutor]]:
    """Install ``executor`` as the ambient executor for this block.

    Passing ``None`` (or an executor with ``workers=1``) leaves call
    sites on their serial paths, so the CLI can wrap unconditionally.
    """
    global _AMBIENT
    previous = _AMBIENT
    _AMBIENT = executor
    try:
        yield executor
    finally:
        _AMBIENT = previous


def active_executor_config() -> Optional[Dict[str, Any]]:
    """Fingerprint of the ambient executor, for the run registry."""
    if _AMBIENT is None:
        return None
    return _AMBIENT.config_dict()
