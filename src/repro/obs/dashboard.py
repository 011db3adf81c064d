"""Live terminal dashboard over an observed run directory.

    python -m repro.obs dashboard results/run_2/            # live, refreshing
    python -m repro.obs dashboard results/run_2/ --once     # one deterministic frame

The dashboard *tails* the run's JSONL artefacts — ``events.jsonl``,
``trace.jsonl``, ``alerts.jsonl``, ``drift.jsonl``, ``faults.jsonl``,
``profile.jsonl`` — through :class:`JsonlTailer`, which only ever
consumes complete lines: a line still being written by the observed
process (no trailing newline yet) is left for the next poll, and
malformed lines are skipped and counted, never fatal.  ``metrics.json`` is re-read whole on each
refresh when present.

One frame shows:

- the run header (id, status, artefact record counts);
- loss and accuracy sparklines from the trainers' epoch log records
  and health heartbeats;
- per-layer spike-rate bars (latest health heartbeat, falling back to
  the ``health.spike_rate`` / ``snn.layer_spike_rate`` gauges);
- the most recent health alerts;
- the hottest primitive ops from the op profiler (when the run was
  profiled);
- a span waterfall of the slowest completed spans.

``--once`` renders exactly one frame with no clock reads and no ANSI
cursor control, so its output is a deterministic function of the run
directory's contents — the snapshot mode the tests pin.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Optional

from .core import parse_jsonl
from .profile import aggregate
from .report import _dispatch_rows

SPARK_CHARS = "▁▂▃▄▅▆▇█"
BAR_CHAR = "█"

_ANSI_CLEAR = "\x1b[2J\x1b[H"


class JsonlTailer:
    """Incremental reader of one JSONL file.

    Tracks a byte offset and returns only records from *complete* lines
    (terminated by ``\\n``); a truncated tail written mid-crash or
    mid-flush is retried on the next poll instead of crashing the
    dashboard.  A file that shrinks (rotated/rewritten) resets the
    offset.  Malformed complete lines are skipped and counted in
    ``skipped``.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.offset = 0
        self.skipped = 0
        self.records: List[dict] = []

    def poll(self) -> List[dict]:
        """Read newly completed records; returns just the new ones."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self.offset:
            self.offset = 0  # truncated/rewritten: start over
            self.records = []
        if size == self.offset:
            return []
        with open(self.path, "r", encoding="utf-8", errors="replace") as fp:
            fp.seek(self.offset)
            chunk = fp.read()
        consumed = len(chunk.encode("utf-8"))
        if not chunk.endswith("\n"):
            # Leave the partial trailing line (and its bytes) for later.
            head, _, tail = chunk.rpartition("\n")
            if not _:
                return []  # nothing complete yet
            consumed -= len(tail.encode("utf-8"))
            chunk = head + "\n"
        self.offset += consumed
        new_records, skipped = parse_jsonl(chunk.splitlines())
        self.skipped += skipped
        self.records.extend(new_records)
        return new_records


class DashboardState:
    """All tailers plus the derived series one frame renders from."""

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.events = JsonlTailer(os.path.join(run_dir, "events.jsonl"))
        self.spans = JsonlTailer(os.path.join(run_dir, "trace.jsonl"))
        self.health = JsonlTailer(os.path.join(run_dir, "alerts.jsonl"))
        self.drift = JsonlTailer(os.path.join(run_dir, "drift.jsonl"))
        self.faults = JsonlTailer(os.path.join(run_dir, "faults.jsonl"))
        self.profile = JsonlTailer(os.path.join(run_dir, "profile.jsonl"))
        self.tailers = (self.events, self.spans, self.health,
                        self.drift, self.faults, self.profile)
        self.metrics: dict = {}

    def refresh(self) -> None:
        for tailer in self.tailers:
            tailer.poll()
        path = os.path.join(self.run_dir, "metrics.json")
        try:
            with open(path, "r", encoding="utf-8") as fp:
                self.metrics = json.load(fp)
        except (OSError, json.JSONDecodeError):
            pass  # keep the previous snapshot (or {})

    # -- derived series ------------------------------------------------
    def run_id(self) -> str:
        for event in self.events.records:
            if event.get("kind") == "run_start":
                return str(event.get("run_id", "?"))
        return "?"

    def status(self) -> str:
        if any(e.get("kind") == "run_end" for e in self.events.records):
            return "completed"
        return "running" if self.events.records else "empty"

    def epoch_series(self, key: str) -> List[float]:
        """Per-epoch series pulled from trainer log records and health
        heartbeats (epoch-ordered as recorded)."""
        values: List[float] = []
        for event in self.events.records:
            if event.get("kind") != "log":
                continue
            fields = event.get("fields") or {}
            value = fields.get(key)
            if isinstance(value, (int, float)) and value == value:  # not NaN
                values.append(float(value))
        if values:
            return values
        heartbeat_key = {"train_loss": "loss", "test_accuracy": "accuracy"}.get(
            key, key
        )
        for record in self.health.records:
            if record.get("kind") != "health":
                continue
            value = record.get(heartbeat_key)
            if isinstance(value, (int, float)) and value == value:
                values.append(float(value))
        return values

    def layer_rates(self) -> Optional[List[float]]:
        for record in reversed(self.health.records):
            if record.get("kind") == "health" and record.get("layer_rates"):
                return [float(r) for r in record["layer_rates"]]
        gauges = (self.metrics or {}).get("gauges") or {}
        rates: Dict[int, float] = {}
        for prefix in ("health.spike_rate{layer=", "snn.layer_spike_rate{layer="):
            for name, payload in gauges.items():
                if name.startswith(prefix) and name.endswith("}"):
                    try:
                        layer = int(name[len(prefix):-1])
                    except ValueError:
                        continue
                    value = (payload or {}).get("value")
                    if isinstance(value, (int, float)):
                        rates[layer] = float(value)
            if rates:
                return [rates[k] for k in sorted(rates)]
        return None

    def dispatch_rows(self) -> List[dict]:
        """Per-layer sparse-dispatch gauges (``dispatch.*{layer=N}``)."""
        return _dispatch_rows((self.metrics or {}).get("gauges") or {})

    def alerts(self) -> List[dict]:
        return [r for r in self.health.records if r.get("kind") == "alert"]

    def hot_ops(self, top: int = 5) -> List[tuple]:
        """``(op, total_s, count)`` of the costliest op kinds so far."""
        ranked = aggregate(self.profile.records, top_k=top)["top"]
        return [(row["op"], row["total_s"], row["count"]) for row in ranked]


# ----------------------------------------------------------------------
# Rendering primitives
# ----------------------------------------------------------------------
def sparkline(values: List[float], width: int = 40) -> str:
    """Resample ``values`` to ``width`` columns of block characters."""
    if not values:
        return "·" * width
    if len(values) > width:
        # Keep the most recent `width` points — a dashboard watches now.
        values = values[-width:]
    lo, hi = min(values), max(values)
    span = hi - lo
    chars = []
    for value in values:
        if span <= 0:
            chars.append(SPARK_CHARS[0])
        else:
            index = int((value - lo) / span * (len(SPARK_CHARS) - 1))
            chars.append(SPARK_CHARS[index])
    return "".join(chars).ljust(width, " ")


def hbar(fraction: float, width: int = 24) -> str:
    """Horizontal bar of ``fraction`` (clipped to [0, 1]) of ``width``."""
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return BAR_CHAR * filled + "·" * (width - filled)


def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def render_frame(state: DashboardState, width: int = 80) -> str:
    """One dashboard frame as plain text (no cursor control codes).

    Deterministic for a fixed run directory: everything rendered comes
    from the artefact files, never from the wall clock.
    """
    rule = "─" * width
    lines = []
    header = (
        f" run {state.run_id()}  [{state.status()}]  {state.run_dir}"
    )
    lines.append(header[: width + 2])
    lines.append(rule)

    counts = (
        f" events {len(state.events.records)}  spans {len(state.spans.records)}"
        f"  alerts {len(state.alerts())}  drift {len(state.drift.records)}"
        f"  faults {len(state.faults.records)}"
    )
    skipped = sum(t.skipped for t in state.tailers)
    if skipped:
        counts += f"  (skipped {skipped} malformed line(s))"
    lines.append(counts)
    lines.append(rule)

    spark_width = max(16, width - 36)
    for label, key, fmt in (
        ("loss", "train_loss", "{:.4f}"),
        ("accuracy", "test_accuracy", "{:.3f}"),
    ):
        series = state.epoch_series(key)
        last = fmt.format(series[-1]) if series else "-"
        lines.append(
            f" {label:<9}[{sparkline(series, spark_width)}] "
            f"last {last} ({len(series)} pts)"
        )
    lines.append(rule)

    rates = state.layer_rates()
    lines.append(" spike rate per layer")
    if rates:
        peak = max(max(rates), 1e-12)
        for layer, rate in enumerate(rates):
            lines.append(
                f"   L{layer:<3}{hbar(rate / peak, max(10, width - 30))} "
                f"{rate:.4f}"
            )
    else:
        lines.append("   (no spike-rate telemetry yet)")
    lines.append(rule)

    dispatch = state.dispatch_rows()
    if dispatch:
        lines.append(" sparse dispatch (density vs crossover)")
        for row in dispatch:
            density = row.get("density") or 0.0
            threshold = row.get("threshold") or 0.0
            frac = row.get("sparse_fraction") or 0.0
            path = (
                "sparse" if frac >= 1.0 else "dense " if frac <= 0.0 else "mixed "
            )
            lines.append(
                f"   L{row['layer']:<3}{path} "
                f"{hbar(density, max(10, width - 44))} "
                f"d={density:.4f} x={threshold:.4f}"
            )
        lines.append(rule)

    alerts = state.alerts()
    lines.append(f" alerts ({len(alerts)})")
    for alert in alerts[-5:]:
        severity = alert.get("severity", "warning")
        message = str(alert.get("message", ""))
        line = f"   [{severity[:4]}] {alert.get('rule', '?')}: {message}"
        lines.append(line[: width + 2])
    if not alerts:
        lines.append("   (none)")
    lines.append(rule)

    hot = state.hot_ops(top=5)
    lines.append(" hot ops (top 5 by total time)")
    if hot:
        peak = max(total for _, total, _ in hot)
        peak = max(peak, 1e-12)
        for op, total, count in hot:
            lines.append(
                f"   {op[:16]:<16} {hbar(total / peak, max(10, width - 46))} "
                f"{_format_duration(total)} ×{count}"
            )
    else:
        lines.append("   (no op profile recorded)")
    lines.append(rule)

    spans = [
        s for s in state.spans.records
        if isinstance(s.get("duration_s"), (int, float))
        and isinstance(s.get("started_at"), (int, float))
    ]
    lines.append(" span waterfall (slowest 10)")
    if spans:
        slowest = sorted(spans, key=lambda s: -s["duration_s"])[:10]
        slowest.sort(key=lambda s: s["started_at"])
        t0 = min(s["started_at"] for s in slowest)
        t1 = max(s["started_at"] + s["duration_s"] for s in slowest)
        total = max(t1 - t0, 1e-9)
        lane = max(10, width - 44)
        for span in slowest:
            begin = int((span["started_at"] - t0) / total * lane)
            length = max(1, int(span["duration_s"] / total * lane))
            begin = min(begin, lane - 1)
            length = min(length, lane - begin)
            track = "·" * begin + BAR_CHAR * length
            track = track.ljust(lane, "·")
            name = str(span.get("name", "?"))[:22]
            marker = "!" if span.get("status") == "error" else " "
            lines.append(
                f"  {marker}{name:<22} {track} "
                f"{_format_duration(span['duration_s'])}"
            )
    else:
        lines.append("   (no completed spans yet)")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """CLI body shared with ``python -m repro.obs dashboard``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs dashboard",
        description="Terminal dashboard over an observed run directory.",
    )
    parser.add_argument("run_dir", help="directory written by repro.obs.configure")
    parser.add_argument("--once", action="store_true",
                        help="render a single deterministic frame and exit")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds (live mode)")
    parser.add_argument("--frames", type=int, default=None,
                        help="stop after N frames (live mode; default: "
                             "until the run ends or Ctrl-C)")
    parser.add_argument("--width", type=int, default=80)
    args = parser.parse_args(argv)

    if not os.path.isdir(args.run_dir):
        parser.error(f"run directory not found: {args.run_dir}")
    if args.interval <= 0:
        parser.error("--interval must be positive")

    state = DashboardState(args.run_dir)
    if args.once:
        state.refresh()
        print(render_frame(state, width=args.width), end="")
        return 0

    frames = 0
    try:
        while True:
            state.refresh()
            frame = render_frame(state, width=args.width)
            print(_ANSI_CLEAR + frame, end="", flush=True)
            frames += 1
            if args.frames is not None and frames >= args.frames:
                break
            if state.status() == "completed":
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
