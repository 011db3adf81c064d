"""Op-level profiler with per-layer performance attribution.

Why
---
The paper's latency/energy story (Figs. 3-4) is about *where* time and
memory go inside the network, but span timing only resolves whole
phases.  This module hooks :meth:`Tensor.from_op` — the one creation
point every differentiable op funnels through, the same interception
point :class:`repro.profiling.GraphMemoryMeter` uses — and records one
event per primitive op: wall time, output bytes, shape, dtype, and the
enclosing layer / trace span.  It works identically in the fused and
stepwise temporal engines because both ultimately materialise their
tensors through ``from_op``.

Timing model
------------
``from_op`` fires *after* an op's numpy compute, so each event's
``dt_s`` is the wall-clock delta since the previous event (or since the
profiler was entered).  Deltas therefore tile the profiled interval:
their sum equals the time from profiler entry to the last op created,
and nothing between two ops is ever lost — compute that produces no
intermediate tensor is attributed to the next op downstream of it.

Layer attribution
-----------------
The profiler installs a probe into :mod:`repro.snn.network` whose
temporal loops wrap each layer application in a labelled region
(``L3:Conv2d`` ...); nested regions join with ``/``.  Arbitrary code can
open its own regions via :func:`region` (a no-op when no profiler is
active) — the trainers label epoch phases this way.

Artefacts
---------
Inside an observed run (``observe(run_dir, profile=True)`` or the
``--profile`` CLI flags) the profiler streams ``profile.jsonl`` (one
event per line) and writes a ``repro.obs.profile/v1`` aggregate to
``profile_summary.json`` at shutdown; both register in the run
registry's artefact inventory.  ``python -m repro.obs profile RUN_DIR``
prints the run report's hot-ops section and ``--chrome-trace out.json``
exports a ``chrome://tracing`` / Perfetto loadable trace.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import List, Optional

from ..tensor.tensor import add_op_observer, remove_op_observer
from . import core, report, trace

PROFILE_SCHEMA = "repro.obs.profile/v1"
PROFILE_SCHEMA_VERSION = 1
PROFILE_FILENAME = "profile.jsonl"
SUMMARY_FILENAME = "profile_summary.json"
#: Aggregation bucket for ops created outside any labelled region.
UNATTRIBUTED = "(unattributed)"

_ACTIVE: Optional["OpProfiler"] = None


def active() -> Optional["OpProfiler"]:
    """The currently entered profiler, or ``None``."""
    return _ACTIVE


class _NullRegion:
    """Shared no-op returned by :func:`region` while no profiler runs."""

    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


NULL_REGION = _NullRegion()


def region(label: str):
    """A labelled attribution region on the active profiler (no-op when
    profiling is off — one global read, no allocation)."""
    profiler = _ACTIVE
    if profiler is None:
        return NULL_REGION
    return profiler.region(label)


class _Region:
    """Pushes ``label`` onto the profiler's region stack for a block."""

    __slots__ = ("_profiler", "_label")

    def __init__(self, profiler: "OpProfiler", label: str) -> None:
        self._profiler = profiler
        self._label = label

    def __enter__(self) -> "_Region":
        self._profiler._regions.append(self._label)
        return self

    def __exit__(self, *exc_info) -> bool:
        stack = self._profiler._regions
        if stack and stack[-1] == self._label:
            stack.pop()
        return False


class OpProfiler:
    """Records one timed event per primitive op while entered.

    Parameters
    ----------
    path:
        Optional JSONL file the events stream to (buffered through
        :func:`repro.obs.core.append_to`; flushed on exit).  Events are
        always also kept in ``self.records`` up to ``max_records`` —
        overflow is counted in ``self.dropped`` and reported in the
        aggregate, never silently truncated.
    """

    def __init__(self, path: Optional[str] = None, max_records: int = 1_000_000) -> None:
        self.path = path
        self.max_records = max_records
        self.records: List[dict] = []
        self.dropped = 0
        self._regions: List[str] = []
        self._seq = 0
        self._t0 = 0.0
        self._last = 0.0

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "OpProfiler":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("an OpProfiler is already active")
        add_op_observer(self._on_op)
        from ..snn import network as _snn_network

        _snn_network.set_layer_probe(self.region)
        _ACTIVE = self
        self._t0 = self._last = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        global _ACTIVE
        from ..snn import network as _snn_network

        _snn_network.set_layer_probe(None)
        remove_op_observer(self._on_op)
        _ACTIVE = None
        self._regions.clear()
        if self.path is not None:
            core.close(self.path)
        return False

    def region(self, label: str) -> _Region:
        """A context manager labelling ops created inside it."""
        return _Region(self, label)

    # -- recording -----------------------------------------------------
    def _on_op(self, out, name: str) -> None:
        now = time.perf_counter()
        record = {
            "kind": "op",
            "seq": self._seq,
            "op": name,
            "t_s": now - self._t0,
            "dt_s": now - self._last,
            "bytes": int(out.data.nbytes),
            "shape": list(out.data.shape),
            "dtype": str(out.data.dtype),
            "graph": out._node is not None,
        }
        self._seq += 1
        self._last = now
        if self._regions:
            record["layer"] = "/".join(self._regions)
        span = trace.current_span()
        if span is not None:
            record["span"] = span.name
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(record)
        if self.path is not None:
            core.append_to(self.path, record)

    # -- results -------------------------------------------------------
    def aggregate(self, top_k: int = 10) -> dict:
        """The ``repro.obs.profile/v1`` summary of this profiler's events."""
        return aggregate(self.records, top_k=top_k, dropped=self.dropped)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _table(groups: dict, total_s: float) -> dict:
    """Per-group stats table; keys sorted so the output is deterministic
    for deterministic workloads."""
    table = {}
    for name in sorted(groups):
        samples = groups[name]
        durations = sorted(dt for dt, _ in samples)
        count = len(durations)
        mid = count // 2
        median = (
            durations[mid]
            if count % 2
            else 0.5 * (durations[mid - 1] + durations[mid])
        )
        total = sum(durations)
        table[name] = {
            "count": count,
            "total_s": total,
            "median_s": median,
            "bytes": sum(b for _, b in samples),
            "pct": 100.0 * total / total_s if total_s > 0 else 0.0,
        }
    return table


def aggregate(records: List[dict], top_k: int = 10, dropped: int = 0) -> dict:
    """Fold op events into per-op-kind and per-layer hot-path tables."""
    by_op: dict = {}
    by_layer: dict = {}
    total_s = 0.0
    bytes_total = 0
    count = 0
    for record in records:
        if record.get("kind") != "op":
            continue
        dt = record.get("dt_s")
        if not isinstance(dt, (int, float)):
            continue
        nbytes = record.get("bytes")
        nbytes = int(nbytes) if isinstance(nbytes, (int, float)) else 0
        sample = (float(dt), nbytes)
        by_op.setdefault(str(record.get("op", "?")), []).append(sample)
        by_layer.setdefault(
            str(record.get("layer") or UNATTRIBUTED), []
        ).append(sample)
        total_s += float(dt)
        bytes_total += nbytes
        count += 1
    op_table = _table(by_op, total_s)
    ranked = sorted(
        op_table.items(), key=lambda item: (-item[1]["total_s"], item[0])
    )
    summary = {
        "schema": PROFILE_SCHEMA,
        "schema_version": PROFILE_SCHEMA_VERSION,
        "ops": count,
        "total_s": total_s,
        "bytes_total": bytes_total,
        "dropped": dropped,
        "by_op": op_table,
        "by_layer": _table(by_layer, total_s),
        "top": [{"op": name, **entry} for name, entry in ranked[:top_k]],
    }
    return summary


def chrome_trace(records: List[dict]) -> dict:
    """The events as a ``chrome://tracing`` / Perfetto trace object.

    Each op becomes a complete (``"ph": "X"``) event; timestamps are
    microseconds since the profiler was entered, and the layer / span /
    shape metadata rides along in ``args``.
    """
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro op profile"},
        }
    ]
    for record in records:
        if record.get("kind") != "op":
            continue
        dt = record.get("dt_s")
        end = record.get("t_s")
        if not isinstance(dt, (int, float)) or not isinstance(end, (int, float)):
            continue
        args = {
            key: record[key]
            for key in ("layer", "span", "shape", "dtype", "bytes")
            if record.get(key) is not None
        }
        events.append({
            "name": str(record.get("op", "op")),
            "cat": "op",
            "ph": "X",
            "ts": (float(end) - float(dt)) * 1e6,
            "dur": float(dt) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Session wiring (repro.obs.core calls these)
# ----------------------------------------------------------------------
_SESSION: Optional[OpProfiler] = None
_SESSION_DIR: Optional[str] = None


def start_session(run_dir: str) -> OpProfiler:
    """Start the run-scoped profiler streaming into ``run_dir``
    (``configure(run_dir, profile=True)`` calls this)."""
    global _SESSION, _SESSION_DIR
    if _SESSION is not None:
        end_session()
    profiler = OpProfiler(path=os.path.join(run_dir, PROFILE_FILENAME))
    profiler.__enter__()
    _SESSION = profiler
    _SESSION_DIR = run_dir
    return profiler


def quiesce_forked() -> None:
    """Detach profiler state inherited across ``fork``.

    A worker forked from a profiled run inherits the parent's op
    observer; the child must unhook it (the ``profile.jsonl`` handle
    is forgotten with the others by :func:`repro.obs.core.forget_handles`).
    """
    global _ACTIVE, _SESSION, _SESSION_DIR
    profiler = _ACTIVE
    if profiler is not None:
        try:
            remove_op_observer(profiler._on_op)
        except Exception:
            pass
        try:
            from ..snn import network as _snn_network

            _snn_network.set_layer_probe(None)
        except Exception:
            pass
    _ACTIVE = None
    _SESSION = None
    _SESSION_DIR = None


def end_session() -> Optional[str]:
    """Close the run-scoped profiler and write ``profile_summary.json``;
    returns the summary path (``None`` when no session was active)."""
    global _SESSION, _SESSION_DIR
    if _SESSION is None:
        return None
    profiler, run_dir = _SESSION, _SESSION_DIR
    _SESSION = None
    _SESSION_DIR = None
    profiler.__exit__(None, None, None)
    path = os.path.join(run_dir, SUMMARY_FILENAME)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(profiler.aggregate(), fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """CLI body shared with ``python -m repro.obs profile``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs profile",
        description="The report's hot-ops section and Chrome-trace export "
                    "for a profiled run directory.",
    )
    parser.add_argument("run_dir", help="run directory holding profile.jsonl")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per hot-ops table (default: %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="emit the aggregate summary as JSON")
    parser.add_argument("--chrome-trace", metavar="OUT",
                        help="write a chrome://tracing-loadable trace JSON "
                             "built from profile.jsonl")
    args = parser.parse_args(argv)

    try:
        data = report.load_run(args.run_dir)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    if args.chrome_trace:
        if not data.profile:
            parser.error(
                f"no op events in {os.path.join(args.run_dir, PROFILE_FILENAME)}"
                " — was the run profiled?"
            )
        with open(args.chrome_trace, "w", encoding="utf-8") as fp:
            json.dump(chrome_trace(data.profile), fp)
            fp.write("\n")
        print(f"wrote {args.chrome_trace} ({len(data.profile)} events)")
        return 0
    if not (data.profile or data.profile_summary):
        parser.error(
            f"{args.run_dir} holds neither {PROFILE_FILENAME} nor "
            f"{SUMMARY_FILENAME} — was the run profiled?"
        )
    if args.json:
        print(json.dumps(report.profile_summary(data), indent=2, sort_keys=True))
    else:
        lines: List[str] = []
        report.render_profile(data, lines, top=args.top)
        print("\n".join(lines).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
