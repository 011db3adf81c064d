"""Deterministic chaos schedules for the parallel executor.

The executor's supervision machinery (crash detection, re-dispatch,
timeouts, poison quarantine) is only trustworthy if it can be tested
deterministically.  A ``ChaosSpec`` injects worker failures *keyed by
(task index, attempt number)* rather than by timing, so a chaos run is
reproducible: "kill whichever worker picks up task 3 on its first
attempt" behaves identically whether that worker is fast or slow.

Schedules run inside the worker process, immediately before the task
function executes:

* ``kill``  — the worker calls ``os._exit(exit_code)``: a hard death
  indistinguishable from a segfault or an OOM kill from the
  supervisor's point of view.
* ``hang``  — the worker sleeps ``hang_seconds`` before running the
  task, exercising per-task timeouts (the supervisor kills the worker
  once the task passes its deadline).
* ``kill_after`` — the worker dies *after* the task function returns
  but before its result is sent, so the finished work is lost and the
  task must be re-dispatched.

A task listed with ``attempts >= poison_threshold`` consecutive kills
becomes a poison task and must end up quarantined, not retried forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

__all__ = ["ChaosSpec"]


def _freeze_pairs(pairs: Iterable[Tuple[int, int]]) -> FrozenSet[Tuple[int, int]]:
    frozen = frozenset((int(index), int(attempt)) for index, attempt in pairs)
    for index, attempt in frozen:
        if index < 0 or attempt < 0:
            raise ValueError(
                f"chaos schedule entries must be non-negative, got ({index}, {attempt})"
            )
    return frozen


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic worker-failure schedule.

    ``kill`` / ``hang`` hold ``(task_index, attempt)`` pairs: the fault
    fires when that task index is dispatched for that attempt number
    (attempt 0 is the first dispatch).  ``kill_task(i, n)`` /
    ``hang_task(i, n)`` are convenience constructors covering attempts
    ``0..n-1`` of one task.
    """

    kill: FrozenSet[Tuple[int, int]] = field(default_factory=frozenset)
    hang: FrozenSet[Tuple[int, int]] = field(default_factory=frozenset)
    kill_after: FrozenSet[Tuple[int, int]] = field(default_factory=frozenset)
    exit_code: int = 139  # mimic SIGSEGV's shell status by default
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kill", _freeze_pairs(self.kill))
        object.__setattr__(self, "hang", _freeze_pairs(self.hang))
        object.__setattr__(self, "kill_after", _freeze_pairs(self.kill_after))
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def kill_task(cls, index: int, attempts: int = 1, **kwargs) -> "ChaosSpec":
        """Kill the worker running ``index`` on its first ``attempts`` tries."""
        return cls(kill=frozenset((index, a) for a in range(attempts)), **kwargs)

    @classmethod
    def hang_task(cls, index: int, attempts: int = 1, **kwargs) -> "ChaosSpec":
        """Hang the worker running ``index`` on its first ``attempts`` tries."""
        return cls(hang=frozenset((index, a) for a in range(attempts)), **kwargs)

    @classmethod
    def kill_task_after(cls, index: int, attempts: int = 1, **kwargs) -> "ChaosSpec":
        """Kill the worker running ``index`` right after the task body
        returns, before its result is sent, on its first ``attempts``
        tries."""
        return cls(
            kill_after=frozenset((index, a) for a in range(attempts)), **kwargs
        )

    # ------------------------------------------------------------------
    # Queries (called in the worker, right before the task function)
    # ------------------------------------------------------------------
    def should_kill(self, index: int, attempt: int) -> bool:
        return (int(index), int(attempt)) in self.kill

    def should_hang(self, index: int, attempt: int) -> bool:
        return (int(index), int(attempt)) in self.hang

    def should_kill_after(self, index: int, attempt: int) -> bool:
        return (int(index), int(attempt)) in self.kill_after

    @property
    def is_null(self) -> bool:
        return not self.kill and not self.hang and not self.kill_after

    def as_dict(self) -> Dict[str, object]:
        return {
            "kill": sorted(self.kill),
            "hang": sorted(self.hang),
            "kill_after": sorted(self.kill_after),
            "exit_code": self.exit_code,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ChaosSpec":
        return cls(
            kill=frozenset(tuple(p) for p in payload.get("kill", ())),
            hang=frozenset(tuple(p) for p in payload.get("hang", ())),
            kill_after=frozenset(tuple(p) for p in payload.get("kill_after", ())),
            exit_code=int(payload.get("exit_code", 139)),
            hang_seconds=float(payload.get("hang_seconds", 3600.0)),
        )
