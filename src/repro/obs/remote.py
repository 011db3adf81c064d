"""Cross-process telemetry for the parallel executor.

PR 9's workers quiesce every observability channel, so an observed run
goes dark the moment it fans out.  This module replaces quiescing with
**capture** when the parent run is observed: a worker-side
:class:`TelemetryBuffer` intercepts events, completed spans, metric
deltas, health alerts, fault events and (opt-in) profiler ops, tags
them with ``(worker_id, pid, task_index, seq)``, and ships them back to
the parent — piggybacked on the per-worker result pipe, with a
side-channel ``worker-<id>.jsonl`` shard per worker as the crash-durable
copy.  The parent-side :class:`MapTelemetry` merges everything in fixed
``(task_index, seq)`` order.

Determinism contract
--------------------
The merged canonical stream (``worker_telemetry.jsonl``) is **bitwise
deterministic across reruns and worker counts** for a deterministic
workload:

- capture is scoped to task execution (``begin_task``/``end_task``);
  per-worker setup (initializers, lazy dataset builds under
  :class:`repro.obs.core.suspend_capture`) never enters the stream, so
  one worker and eight workers capture the same records;
- ``seq`` restarts at 0 per task and the merge orders by
  ``(task_index, seq)``, erasing scheduling order;
- volatile fields (timestamps, durations, pids, worker ids, attempt
  numbers) are stripped from the canonical lines, and span ids are
  renumbered per task by first appearance.

The *full-fidelity* records (with wall-clock timings and ids) are not
discarded: spans are stitched into the parent's ``trace.jsonl`` under
the dispatching ``exec.map`` span, metric deltas are replayed into the
parent registry, alerts land in ``alerts.jsonl``, fault events in
``faults.jsonl``, and profiler ops join ``profile.jsonl`` with a
``worker`` tag that becomes a per-process lane in the Chrome-trace
export.  Aggregate counters therefore equal a serial observed run's.

The serial path uses the same machinery as a *tee* (records are
mirrored into the canonical stream but continue down the normal
in-process path), so ``workers=1`` and ``workers=4`` produce the same
``worker_telemetry.jsonl`` bytes.
"""

from __future__ import annotations

import fnmatch
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional

from . import core, health, trace
from . import metrics as obs_metrics
from . import profile as profile_mod
from .core import _json_default, parse_jsonl

SCHEMA_VERSION = 1
#: Canonical merged stream (bitwise deterministic, see module docstring).
MERGED_FILENAME = "worker_telemetry.jsonl"
#: Per-worker crash-durable shard files, written in the run directory.
SHARD_PATTERN = "worker-*.jsonl"

#: Fields that legitimately differ between runs/workers; stripped from
#: canonical lines (the replayed full-fidelity records keep them).
_VOLATILE_KEYS = frozenset(
    {"ts", "started_at", "duration_s", "dt_s", "t_s", "pid", "worker", "attempt"}
)

#: Telemetry capture record kinds.
KINDS = ("event", "span", "metric", "alert", "fault")


def shard_filename(worker_id: int) -> str:
    return f"worker-{int(worker_id)}.jsonl"


# ----------------------------------------------------------------------
# Envelope: what a worker needs to capture one map's telemetry
# ----------------------------------------------------------------------
@dataclass
class TelemetryEnvelope:
    """Per-map capture parameters serialized into each worker.

    Carries the parent's active span context (``dispatch_span_id`` /
    ``dispatch_depth``) so worker spans stitch under the dispatching
    ``exec.map`` span, plus the run identity/context that makes child
    records indistinguishable from parent ones.
    """

    run_id: str = ""
    context: Dict[str, Any] = field(default_factory=dict)
    map_id: int = 0
    dispatch_span_id: Optional[int] = None
    dispatch_depth: int = 0
    profile: bool = False
    shard_dir: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "context": dict(self.context),
            "map_id": self.map_id,
            "dispatch_span_id": self.dispatch_span_id,
            "dispatch_depth": self.dispatch_depth,
            "profile": self.profile,
            "shard_dir": self.shard_dir,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryEnvelope":
        return cls(
            run_id=str(data.get("run_id") or ""),
            context=dict(data.get("context") or {}),
            map_id=int(data.get("map_id") or 0),
            dispatch_span_id=data.get("dispatch_span_id"),
            dispatch_depth=int(data.get("dispatch_depth") or 0),
            profile=bool(data.get("profile")),
            shard_dir=data.get("shard_dir"),
        )


# ----------------------------------------------------------------------
# Worker-side buffer
# ----------------------------------------------------------------------
class TelemetryBuffer:
    """Capture sink for one worker process (or the serial tee).

    In ``consume`` mode (executor workers) every offered record is
    swallowed — a forked child must never write the parent's files —
    buffered for the piggyback payload, and streamed to this worker's
    shard file.  With ``consume=False`` (the parent's serial tee)
    records are only mirrored for the canonical stream and continue
    down the normal in-process path.
    """

    def __init__(
        self,
        envelope: TelemetryEnvelope,
        worker_id: int,
        consume: bool = True,
    ) -> None:
        self.envelope = envelope
        self.worker_id = int(worker_id)
        self.pid = os.getpid()
        self.consume = consume
        self._task: Optional[int] = None
        self._attempt = 0
        self._seq = 0
        self._t0 = 0.0
        self._records: List[dict] = []
        self._profiler: Optional[profile_mod.OpProfiler] = None
        self._profile_mark = 0
        self._fp: Optional[IO[str]] = None
        self._shard_failed = False

    # -- capture --------------------------------------------------------
    def sink(self, kind: str, data: dict) -> bool:
        """Offer one record; returns whether it was consumed."""
        if self._task is not None and not core.capture_suspended():
            record = {"seq": self._seq, "kind": kind, "data": data}
            self._seq += 1
            self._records.append(record)
            self._write_shard(record)
        return self.consume

    def metric_journal(self, op: dict) -> None:
        """Registry ``_journal`` hook (metric deltas enter the stream)."""
        self.sink("metric", op)

    # -- task scoping ---------------------------------------------------
    def begin_task(self, index: int, attempt: int) -> None:
        self._task = int(index)
        self._attempt = int(attempt)
        self._seq = 0
        self._records = []
        if self._profiler is not None:
            self._profile_mark = len(self._profiler.records)
        self._t0 = time.perf_counter()

    def end_task(self, status: str = "ok") -> dict:
        """Close the current task and return its piggyback payload."""
        duration = time.perf_counter() - self._t0
        profile_records: List[dict] = []
        if self._profiler is not None:
            for record in self._profiler.records[self._profile_mark :]:
                profile_records.append(
                    {
                        **record,
                        "worker": self.worker_id,
                        "pid": self.pid,
                        "task": self._task,
                    }
                )
        payload = {
            "schema": SCHEMA_VERSION,
            "map": self.envelope.map_id,
            "worker": self.worker_id,
            "pid": self.pid,
            "task": self._task,
            "attempt": self._attempt,
            "status": status,
            "duration_s": duration,
            "records": self._records,
            "profile": profile_records,
        }
        if not self.consume:
            # Tee records already followed the normal in-process path;
            # the merge must not replay them a second time.
            payload["direct"] = True
        self._task = None
        self._records = []
        return payload

    # -- shard side-channel --------------------------------------------
    def _write_shard(self, record: dict) -> None:
        if not self.consume or self.envelope.shard_dir is None:
            return
        if self._fp is None:
            if self._shard_failed:
                return
            try:
                os.makedirs(self.envelope.shard_dir, exist_ok=True)
                self._fp = open(
                    os.path.join(
                        self.envelope.shard_dir, shard_filename(self.worker_id)
                    ),
                    "a",
                    encoding="utf-8",
                )
            except OSError:
                # Piggyback transport still works; the side channel is
                # best-effort (recovery only).
                self._shard_failed = True
                return
        line = {
            "schema": SCHEMA_VERSION,
            "map": self.envelope.map_id,
            "worker": self.worker_id,
            "pid": self.pid,
            "task": self._task,
            "attempt": self._attempt,
            **record,
        }
        self._fp.write(json.dumps(line, default=_json_default) + "\n")
        self._fp.flush()

    def tear_shard(self) -> None:
        """Leave a deliberately torn (half-written, newline-less) record
        at the shard tail — the chaos harness calls this right before
        ``os._exit`` to model a worker killed mid-telemetry-write."""
        if self._fp is None:
            return
        line = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "map": self.envelope.map_id,
                "worker": self.worker_id,
                "task": self._task,
                "seq": self._seq,
                "kind": "event",
                "data": {"torn": True},
            }
        )
        self._fp.write(line[: max(1, len(line) // 2)])
        self._fp.flush()

    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None


def install_worker_capture(
    envelope: TelemetryEnvelope, worker_id: int
) -> TelemetryBuffer:
    """Turn this (child) process's observability into capture mode.

    Called from the worker bootstrap *after* the quiesce step cleared
    inherited sinks: re-enables the obs state with the parent's run
    identity/context but no files, resets the span stack/counter and
    metrics registry, installs the buffer as the capture sink and
    metric journal, gives the child its own memory-backed
    :class:`HealthMonitor`, and (opt-in) starts a memory-backed op
    profiler.
    """
    profile_mod.quiesce_forked()
    trace.reset(counter=True)
    state = core.state()
    state.enabled = True
    state.run_dir = None
    state.run_id = envelope.run_id or None
    state.context = dict(envelope.context)
    state.events = []
    state.spans = []
    state._events_fp = None
    state._trace_fp = None
    obs_metrics.reset_registry()
    buffer = TelemetryBuffer(envelope, worker_id, consume=True)
    obs_metrics.get_registry()._journal = buffer.metric_journal
    core.set_capture_sink(buffer.sink)
    health.install(health.HealthMonitor(run_dir=None))
    if envelope.profile:
        profiler = profile_mod.OpProfiler(path=None)
        profiler.__enter__()
        buffer._profiler = profiler
    return buffer


# ----------------------------------------------------------------------
# Canonicalization (shared by serial tee and worker merge)
# ----------------------------------------------------------------------
def _clean(data: dict) -> dict:
    out = {k: v for k, v in data.items() if k not in _VOLATILE_KEYS}
    fields = out.get("fields")
    if isinstance(fields, dict):
        out["fields"] = {
            k: v for k, v in fields.items() if k not in _VOLATILE_KEYS
        }
    return out


def _seq_key(record: dict):
    seq = record.get("seq")
    return (not isinstance(seq, int), seq if isinstance(seq, int) else 0)


def canonical_lines(map_id: int, task: int, records: List[dict]) -> List[dict]:
    """The canonical (volatile-stripped, renumbered) lines for one task.

    Span ids are replaced by per-task ordinals assigned in order of
    first appearance; a parent id that does not resolve within the task
    (the worker's top level, or the serial path's enclosing spans) maps
    to the sentinel ``"dispatch"`` — both modes produce identical
    bytes.
    """
    ordered = sorted(
        (r for r in records if isinstance(r.get("data"), dict)), key=_seq_key
    )
    idmap: Dict[Any, int] = {}
    for record in ordered:
        if record.get("kind") == "span":
            span_id = record["data"].get("span_id")
            if span_id is not None and span_id not in idmap:
                idmap[span_id] = len(idmap)
    lines = []
    for record in ordered:
        data = _clean(record["data"])
        if record.get("kind") == "span":
            span_id = record["data"].get("span_id")
            parent_id = record["data"].get("parent_id")
            data.pop("span_id", None)
            data.pop("parent_id", None)
            data.pop("depth", None)
            data["sid"] = idmap.get(span_id)
            data["parent"] = (
                idmap[parent_id] if parent_id in idmap else "dispatch"
            )
        lines.append(
            {
                "map": map_id,
                "task": task,
                "seq": record.get("seq"),
                "kind": record.get("kind"),
                "data": data,
            }
        )
    return lines


# ----------------------------------------------------------------------
# Parent-side merge
# ----------------------------------------------------------------------
_MAP_SEQ = {"run": None, "n": 0}


def _next_map_id(run_id: Optional[str]) -> int:
    """Per-run map counter: deterministic because maps are issued in
    program order regardless of worker count."""
    if _MAP_SEQ["run"] != run_id:
        _MAP_SEQ["run"] = run_id
        _MAP_SEQ["n"] = 0
    _MAP_SEQ["n"] += 1
    return _MAP_SEQ["n"]


class MapTelemetry:
    """Parent-side telemetry plan for one observed ``map`` call.

    Owns the envelope shipped to workers, collects the per-task
    piggyback payloads (preferring a successful attempt), recovers
    tasks whose worker died before the piggyback from the shard files,
    and performs the deterministic merge.
    """

    def __init__(self, label: str) -> None:
        state = core.state()
        self.label = label
        self.run_dir = state.run_dir
        self.map_id = _next_map_id(state.run_id)
        self.envelope = TelemetryEnvelope(
            run_id=state.run_id or "",
            context=dict(state.context),
            map_id=self.map_id,
            profile=profile_mod.session_active(),
            shard_dir=state.run_dir,
        )
        self.payloads: Dict[int, dict] = {}
        self._tee: Optional[TelemetryBuffer] = None
        self.merged: Optional[dict] = None

    # -- wiring ---------------------------------------------------------
    def set_dispatch(self, span_id: Optional[int], depth: int) -> None:
        self.envelope.dispatch_span_id = span_id
        self.envelope.dispatch_depth = int(depth)

    def envelope_dict(self) -> Dict[str, Any]:
        return self.envelope.as_dict()

    # -- payload collection --------------------------------------------
    @staticmethod
    def _better(new: dict, old: dict) -> bool:
        ok_new = new.get("status") == "ok"
        ok_old = old.get("status") == "ok"
        if ok_new != ok_old:
            return ok_new
        return (new.get("attempt") or 0) >= (old.get("attempt") or 0)

    def offer(self, payload: Any) -> None:
        """Adopt one worker payload (later/successful attempts win)."""
        if not isinstance(payload, dict):
            return
        task = payload.get("task")
        if not isinstance(task, int):
            return
        current = self.payloads.get(task)
        if current is None or self._better(payload, current):
            self.payloads[task] = payload

    # -- serial tee ------------------------------------------------------
    def tee_begin(self, index: int, attempt: int) -> None:
        """Start capturing one serially executed task in-process."""
        if self._tee is None:
            self._tee = TelemetryBuffer(self.envelope, worker_id=0, consume=False)
            core.set_capture_sink(self._tee.sink)
            obs_metrics.get_registry()._journal = self._tee.metric_journal
        self._tee.begin_task(index, attempt)

    def tee_end(self, status: str = "ok") -> None:
        if self._tee is not None:
            self.offer(self._tee.end_task(status))

    def tee_close(self) -> None:
        if self._tee is not None:
            core.set_capture_sink(None)
            obs_metrics.get_registry()._journal = None
            self._tee = None

    # -- shard recovery --------------------------------------------------
    def recover_from_shards(self) -> int:
        """Rebuild payloads for tasks with no piggyback from the shard
        files (worker died mid-task).  Torn tails and absent shards are
        tolerated: unparseable lines are skipped, missing files simply
        contribute nothing."""
        if self.run_dir is None or not os.path.isdir(self.run_dir):
            return 0
        groups: Dict[int, Dict[int, dict]] = {}
        for name in sorted(os.listdir(self.run_dir)):
            if not fnmatch.fnmatch(name, SHARD_PATTERN):
                continue
            try:
                with open(os.path.join(self.run_dir, name), encoding="utf-8") as fp:
                    raw = fp.read()
            except OSError:
                continue
            entries, _ = parse_jsonl(raw.splitlines())  # torn tail skipped
            for entry in entries:
                if entry.get("map") != self.map_id:
                    continue
                task, attempt, seq = (
                    entry.get("task"), entry.get("attempt"), entry.get("seq"),
                )
                if not all(isinstance(v, int) for v in (task, attempt, seq)):
                    continue
                slot = groups.setdefault(task, {}).setdefault(
                    attempt,
                    {
                        "worker": entry.get("worker"),
                        "pid": entry.get("pid"),
                        "records": [],
                    },
                )
                slot["records"].append(
                    {"seq": seq, "kind": entry.get("kind"), "data": entry.get("data")}
                )
        recovered = 0
        for task, attempts in groups.items():
            if task in self.payloads:
                continue
            attempt = max(attempts)
            slot = attempts[attempt]
            self.payloads[task] = {
                "schema": SCHEMA_VERSION,
                "map": self.map_id,
                "worker": slot["worker"],
                "pid": slot["pid"],
                "task": task,
                "attempt": attempt,
                "status": "recovered",
                "records": sorted(slot["records"], key=_seq_key),
                "profile": [],
            }
            recovered += 1
        return recovered

    # -- merge -----------------------------------------------------------
    def merge(self) -> dict:
        """Write the canonical stream and replay full-fidelity records.

        Tasks are merged in ascending index, records in ``seq`` order.
        Tee payloads (``direct``) already flowed through the normal
        path and only contribute canonical lines; worker payloads are
        additionally replayed: metric deltas into the registry, events
        into ``events.jsonl``, stitched spans into ``trace.jsonl``,
        alerts through the active monitor, fault events into
        ``faults.jsonl``, profiler ops into the profile session.
        """
        self.tee_close()
        recovered = self.recover_from_shards()
        stats = {
            "tasks": len(self.payloads),
            "records": 0,
            "recovered": recovered,
            "spans": 0,
            "events": 0,
            "metrics": 0,
            "alerts": 0,
            "faults": 0,
            "profile": 0,
        }
        merged_fp: Optional[IO[str]] = None
        faults_fp: Optional[IO[str]] = None
        if self.run_dir is not None:
            os.makedirs(self.run_dir, exist_ok=True)
            # A run's first map truncates: re-tracing into the same run
            # directory must produce identical bytes, not accumulate.
            merged_fp = open(
                os.path.join(self.run_dir, MERGED_FILENAME),
                "w" if self.map_id == 1 else "a",
                encoding="utf-8",
            )
        try:
            for task in sorted(self.payloads):
                payload = self.payloads[task]
                records = sorted(
                    (
                        r
                        for r in (payload.get("records") or [])
                        if isinstance(r, dict) and isinstance(r.get("data"), dict)
                    ),
                    key=_seq_key,
                )
                stats["records"] += len(records)
                if merged_fp is not None:
                    for line in canonical_lines(self.map_id, task, records):
                        merged_fp.write(
                            json.dumps(line, sort_keys=True, default=_json_default)
                            + "\n"
                        )
                if payload.get("direct"):
                    continue
                faults_fp = self._replay(payload, records, stats, faults_fp)
        finally:
            if merged_fp is not None:
                merged_fp.flush()
                merged_fp.close()
            if faults_fp is not None:
                faults_fp.flush()
                faults_fp.close()
        if self.run_dir is not None:
            # Shards are recovery-only and this merge consumed them;
            # removing them keeps stale lines out of a later run's
            # recovery scan (map ids restart per run).
            try:
                names = sorted(os.listdir(self.run_dir))
            except OSError:
                names = []
            for name in names:
                if fnmatch.fnmatch(name, SHARD_PATTERN):
                    try:
                        os.remove(os.path.join(self.run_dir, name))
                    except OSError:
                        pass
        self.merged = stats
        return stats

    def _replay(
        self,
        payload: dict,
        records: List[dict],
        stats: dict,
        faults_fp: Optional[IO[str]],
    ) -> Optional[IO[str]]:
        registry = obs_metrics.get_registry()
        monitor = health.active()
        dispatch_id = self.envelope.dispatch_span_id
        task = payload.get("task")
        idmap: Dict[Any, str] = {}
        for record in records:
            if record.get("kind") == "span":
                span_id = record["data"].get("span_id")
                if span_id is not None and span_id not in idmap:
                    idmap[span_id] = f"w{self.map_id}.{task}.{len(idmap)}"
        for record in records:
            kind = record.get("kind")
            data = record["data"]
            if kind == "metric":
                obs_metrics.apply_metric_op(registry, data)
                stats["metrics"] += 1
            elif kind == "event":
                core.emit_event(dict(data))
                stats["events"] += 1
            elif kind == "span":
                stitched = dict(data)
                old_parent = stitched.get("parent_id")
                stitched["span_id"] = idmap.get(stitched.get("span_id"))
                stitched["parent_id"] = idmap.get(old_parent, dispatch_id)
                try:
                    child_depth = int(stitched.get("depth") or 0)
                except (TypeError, ValueError):
                    child_depth = 0
                stitched["depth"] = self.envelope.dispatch_depth + 1 + child_depth
                stitched["worker"] = payload.get("worker")
                stitched["pid"] = payload.get("pid")
                stitched["task"] = task
                core.emit_span(stitched)
                stats["spans"] += 1
            elif kind == "alert":
                if monitor is not None:
                    monitor.ingest(dict(data))
                stats["alerts"] += 1
            elif kind == "fault":
                if self.run_dir is not None:
                    if faults_fp is None:
                        faults_fp = open(
                            os.path.join(self.run_dir, "faults.jsonl"),
                            "a",
                            encoding="utf-8",
                        )
                    faults_fp.write(json.dumps(data, default=_json_default) + "\n")
                stats["faults"] += 1
        stats["profile"] += profile_mod.ingest_records(payload.get("profile") or [])
        return faults_fp
