"""Render an observed run directory as a markdown report.

    python -m repro.obs.report results/run_2/            # to stdout
    python -m repro.obs.report results/run_2/ --out REPORT.md
    python -m repro.obs.report results/run_2/ --json     # machine-readable

Reads the run's ``trace.jsonl`` (spans), ``metrics.json`` (registry
snapshot), ``events.jsonl`` (log records), ``drift.jsonl`` (per-layer
conversion-drift series from :class:`repro.obs.drift.DriftMonitor`),
``faults.jsonl`` (fault-injection events), ``alerts.jsonl``
(training-health alerts/heartbeats), ``profile.jsonl`` /
``profile_summary.json`` (op-level profiler events and their
``repro.obs.profile/v1`` aggregate) — any subset may be missing, in
which case the report degrades to the available artefacts with an
explicit warning line per missing file — and renders the span tree
with durations (errored spans called out with their exception),
counter / gauge / histogram tables, the per-layer conversion-drift
table and the health-alert section.

``--json`` emits the loaded run as one JSON object
(:func:`run_to_json`) so the diff engine (:mod:`repro.obs.diff`) and
external tooling share this module's parser.
"""

from __future__ import annotations

import argparse
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .core import parse_jsonl


@dataclass
class RunData:
    """Everything read back from one run directory."""

    run_dir: str
    spans: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    drift: List[dict] = field(default_factory=list)
    faults: List[dict] = field(default_factory=list)
    alerts: List[dict] = field(default_factory=list)
    health: List[dict] = field(default_factory=list)
    profile: List[dict] = field(default_factory=list)
    profile_summary: dict = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)


# JSONL artefacts that only some runs write (instrumented conversions,
# fault injection, profiling, health monitoring):
# their absence is normal and does not warn.
_OPTIONAL_JSONL = frozenset({
    "drift.jsonl",
    "faults.jsonl",
    "profile.jsonl",
    "alerts.jsonl",
})


def _load_jsonl(data: RunData, filename: str, what: str) -> List[dict]:
    """Read one JSONL artefact; a missing or unreadable file degrades to
    an empty list — and torn lines to a skip count — plus a warning line
    in the rendered report (none for a missing optional artefact)."""
    path = os.path.join(data.run_dir, filename)
    if not os.path.exists(path):
        if filename not in _OPTIONAL_JSONL:
            data.warnings.append(f"`{filename}` missing — no {what} recorded")
        return []
    try:
        with open(path, "r", encoding="utf-8") as fp:
            records, skipped = parse_jsonl(fp)
    except OSError as exc:
        data.warnings.append(f"`{filename}` unreadable ({exc}) — {what} skipped")
        return []
    if skipped:
        data.warnings.append(
            f"`{filename}`: skipped {skipped} malformed line(s) "
            "(truncated tail?)"
        )
    return records


def _load_json_object(data: RunData, filename: str, what: str) -> dict:
    """Read one optional JSON-object artefact; absence is silent,
    unreadability warns."""
    path = os.path.join(data.run_dir, filename)
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fp:
            payload = json.load(fp)
    except (json.JSONDecodeError, OSError) as exc:
        data.warnings.append(f"`{filename}` unreadable ({exc}) — {what} skipped")
        return {}
    if not isinstance(payload, dict):
        data.warnings.append(f"`{filename}` is not a JSON object — {what} skipped")
        return {}
    return payload


def load_run(run_dir: str) -> RunData:
    """Load spans, events, drift series and the metrics snapshot from
    ``run_dir``.

    Only a missing run *directory* raises; each missing or unreadable
    artefact file inside it becomes an entry in ``RunData.warnings`` and
    the report renders from whatever is present.
    """
    if not os.path.isdir(run_dir):
        raise FileNotFoundError(f"run directory not found: {run_dir}")
    data = RunData(run_dir=run_dir)
    data.spans = _load_jsonl(data, "trace.jsonl", "spans")
    data.events = _load_jsonl(data, "events.jsonl", "events")
    data.drift = [
        r for r in _load_jsonl(data, "drift.jsonl", "conversion drift")
        if r.get("kind") == "drift"
    ]
    data.faults = [
        r for r in _load_jsonl(data, "faults.jsonl", "fault events")
        if r.get("kind") == "fault"
    ]
    data.profile = [
        r for r in _load_jsonl(data, "profile.jsonl", "op profile")
        if r.get("kind") == "op"
    ]
    data.profile_summary = _load_json_object(
        data, "profile_summary.json", "profile summary"
    )
    health_records = _load_jsonl(data, "alerts.jsonl", "health telemetry")
    data.alerts = [r for r in health_records if r.get("kind") == "alert"]
    data.health = [r for r in health_records if r.get("kind") == "health"]
    metrics_path = os.path.join(run_dir, "metrics.json")
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path, "r", encoding="utf-8") as fp:
                data.metrics = json.load(fp)
        except (json.JSONDecodeError, OSError) as exc:
            data.warnings.append(
                f"`metrics.json` unreadable ({exc}) — metrics skipped"
            )
    else:
        data.warnings.append("`metrics.json` missing — no metrics recorded")
    return data


def run_to_json(data: RunData) -> dict:
    """The loaded run as one JSON-ready object.

    This is the machine-readable twin of :func:`render_report` — the
    diff engine and external tooling consume it so there is exactly one
    parser for run directories (:func:`load_run`).
    """
    return {
        "schema": "repro.obs.run/v1",
        "run_dir": data.run_dir,
        "warnings": list(data.warnings),
        "spans": list(data.spans),
        "events": list(data.events),
        "metrics": dict(data.metrics),
        "drift": list(data.drift),
        "faults": list(data.faults),
        "alerts": list(data.alerts),
        "health": list(data.health),
        "profile": list(data.profile),
        "profile_summary": dict(data.profile_summary),
    }


def _span_tree_rows(spans: List[dict]) -> List[dict]:
    """Spans in depth-first tree order (they are stored close-ordered)."""
    by_parent: Dict[Optional[int], List[dict]] = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: s.get("started_at", 0.0))

    ordered: List[dict] = []

    def visit(parent_id: Optional[int]) -> None:
        for span in by_parent.get(parent_id, []):
            ordered.append(span)
            span_id = span.get("span_id")
            # A degraded record without a span_id would alias the root
            # sentinel and recurse forever — treat it as a leaf.
            if span_id is not None:
                visit(span_id)

    visit(None)
    # Orphans (parent span never closed, e.g. crashed run) go last.
    seen = {id(s) for s in ordered}
    ordered.extend(s for s in spans if id(s) not in seen)
    return ordered


def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def _format_bytes(nbytes: float) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{value:.0f} B"
        value /= 1024.0
    return f"{value:.1f} GiB"


def _fields_cell(span: dict) -> str:
    fields = span.get("fields") or {}
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return ", ".join(parts)


def _fmt(value, spec: str = ".4g") -> str:
    return format(value, spec) if isinstance(value, (int, float)) else "-"


def md_table(headers, rows, align: str = "") -> str:
    """One markdown table: ``align`` holds one ``"l"``/``"r"`` per column
    (missing columns align left); float cells print as ``.4g``, any
    other cell as ``str``."""
    def cell(value) -> str:
        return f"{value:.4g}" if isinstance(value, float) else str(value)

    align = align.ljust(len(headers), "l")
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---:" if a == "r" else "---" for a in align) + " |",
    ]
    lines.extend("| " + " | ".join(cell(v) for v in row) + " |" for row in rows)
    return "\n".join(lines)


def _render_drift(data: RunData, lines: List[str]) -> None:
    """The "Conversion drift" section: per-layer table of the latest
    snapshot plus the worst-layer callout and the phase trajectory."""
    lines.append(f"## Conversion drift ({len(data.drift)} records)")
    lines.append("")
    latest = max(r.get("snapshot", 0) for r in data.drift)
    snapshots = sorted(
        {(r.get("snapshot", 0), r.get("phase", "?")) for r in data.drift}
    )
    lines.append(
        "snapshots: "
        + ", ".join(f"{index}:{phase}" for index, phase in snapshots)
    )
    lines.append("")
    current = sorted(
        (r for r in data.drift if r.get("snapshot", 0) == latest),
        key=lambda r: r.get("layer", 0),
    )
    phase = current[0].get("phase", "?") if current else "?"
    lines.append(f"### Per-layer gaps — snapshot {latest} (`{phase}`)")
    lines.append("")
    lines.append(md_table(
        ["layer", "mu", "alpha", "beta", "K(mu)", "h(T,mu)",
         "predicted gap", "measured gap", "relative gap"],
        [
            [record.get("layer", "?")] + [
                _fmt(record.get(key))
                for key in ("mu", "alpha", "beta", "k_mu", "h_t_mu",
                            "predicted_gap", "measured_gap", "relative_gap")
            ]
            for record in current
        ],
        "r" * 9,
    ))
    lines.append("")
    worst = max(
        current,
        key=lambda r: abs(r.get("measured_gap") or 0.0),
        default=None,
    )
    if worst is not None:
        lines.append(
            f"**Worst layer: {worst.get('layer', '?')}** — measured gap "
            f"{_fmt(worst.get('measured_gap'))} "
            f"(predicted {_fmt(worst.get('predicted_gap'))}, "
            f"relative {_fmt(worst.get('relative_gap'))})"
        )
        lines.append("")


def _dispatch_rows(gauges: Dict[str, dict]) -> List[dict]:
    """Collect ``dispatch.*{layer=N}`` gauges into per-layer rows."""
    rows: Dict[int, dict] = {}
    for name, payload in gauges.items():
        if not name.startswith("dispatch.") or "{layer=" not in name:
            continue
        field, label = name.split("{layer=", 1)
        try:
            layer = int(label.rstrip("}"))
        except ValueError:
            continue
        rows.setdefault(layer, {})[field[len("dispatch."):]] = payload.get("value")
    return [dict(row, layer=layer) for layer, row in sorted(rows.items())]


def _render_dispatch(data: RunData, lines: List[str]) -> None:
    """The "Sparse dispatch" section: per-layer density vs crossover
    threshold, the chosen path mix, and exact accumulate counts."""
    rows = _dispatch_rows(data.metrics.get("gauges", {}))
    if not rows:
        return
    sparse_total = sum(r.get("sparse_runs") or 0 for r in rows)
    dense_total = sum(r.get("dense_runs") or 0 for r in rows)
    lines.append(
        f"## Sparse dispatch ({sparse_total:g} sparse / "
        f"{dense_total:g} dense layer-forwards)"
    )
    lines.append("")
    table = []
    for row in rows:
        frac = row.get("sparse_fraction") or 0.0
        path = "sparse" if frac >= 1.0 else "dense" if frac <= 0.0 else "mixed"
        table.append([
            row["layer"], _fmt(row.get("density")),
            _fmt(row.get("threshold")), path,
            f"{row.get('sparse_runs') or 0:g}",
            f"{row.get('dense_runs') or 0:g}",
            f"{row.get('accumulates') or 0:g}",
        ])
    lines.append(md_table(
        ["layer", "density", "threshold", "path", "sparse", "dense",
         "accumulates"],
        table,
        "rrrlrrr",
    ))
    lines.append("")


def _render_exec(data: RunData, lines: List[str]) -> None:
    """The "Executor" section: map count and serial downgrades from the
    ``exec.*`` metric family (an observed run maps serially)."""
    counters = data.metrics.get("counters", {})
    maps = float(counters.get("exec.maps", 0) or 0)
    if not maps:
        return
    downgrades = float(counters.get("exec.downgrades", 0) or 0)
    lines.append(
        f"## Executor ({maps:g} maps, {downgrades:g} downgraded to serial)"
    )
    lines.append("")


def profile_summary(data: RunData) -> dict:
    """The run's ``repro.obs.profile/v1`` summary: the persisted one
    (which alone knows the profiler's dropped-event count), else one
    re-aggregated from the surviving events."""
    from .profile import aggregate

    return data.profile_summary or aggregate(data.profile)


def _ranked(table: dict, top: int) -> List[tuple]:
    """The ``top`` rows of a per-group table by total time, ties by name."""
    return sorted(
        table.items(),
        key=lambda item: (-(item[1].get("total_s") or 0.0), item[0]),
    )[:top]


def render_profile(data: RunData, lines: List[str], top: int = 10) -> None:
    """The "Hot ops" section: the ``top`` op kinds plus per-layer
    attribution (``python -m repro.obs profile`` prints this alone)."""
    from .profile import UNATTRIBUTED

    summary = profile_summary(data)
    total_s = float(summary.get("total_s") or 0.0)
    lines.append(
        f"## Hot ops ({summary.get('ops', 0)} ops, "
        f"{_format_duration(total_s)} attributed, "
        f"{_format_bytes(summary.get('bytes_total') or 0)} allocated)"
    )
    lines.append("")
    if summary.get("dropped"):
        lines.append(
            f"> ⚠ {summary['dropped']} op event(s) dropped past the "
            "profiler's record cap"
        )
        lines.append("")
    by_op = _ranked(summary.get("by_op") or {}, top)
    if by_op:
        lines.append(md_table(
            ["op", "count", "total", "median", "bytes", "% of run"],
            [
                [
                    f"`{name}`", entry.get("count", 0),
                    _format_duration(entry.get("total_s")),
                    _format_duration(entry.get("median_s")),
                    _format_bytes(entry.get("bytes") or 0),
                    f"{float(entry.get('pct') or 0.0):.1f}%",
                ]
                for name, entry in by_op
            ],
            "lrrrrr",
        ))
        lines.append("")
    by_layer = summary.get("by_layer") or {}
    if any(name != UNATTRIBUTED for name in by_layer):
        lines.append(f"### Per-layer attribution (top {top})")
        lines.append("")
        lines.append(md_table(
            ["layer", "ops", "total", "bytes", "% of run"],
            [
                [
                    f"`{name}`", entry.get("count", 0),
                    _format_duration(entry.get("total_s")),
                    _format_bytes(entry.get("bytes") or 0),
                    f"{float(entry.get('pct') or 0.0):.1f}%",
                ]
                for name, entry in _ranked(by_layer, top)
            ],
            "lrrrr",
        ))
        lines.append("")


def render_report(data: RunData) -> str:
    """The full markdown report of one run."""
    lines = [f"# Run report — `{data.run_dir}`", ""]

    for warning in data.warnings:
        lines.append(f"> ⚠ {warning}")
    if data.warnings:
        lines.append("")

    lines.append(f"## Spans ({len(data.spans)})")
    lines.append("")
    if data.spans:
        lines.append(md_table(
            ["span", "duration", "status", "fields"],
            [
                [
                    "&nbsp;&nbsp;" * int(span.get("depth", 0))
                    + str(span.get("name", "?")),
                    _format_duration(span.get("duration_s")),
                    span.get("status", "?"), _fields_cell(span),
                ]
                for span in _span_tree_rows(data.spans)
            ],
            "lr",
        ))
    else:
        lines.append("_no spans recorded_")
    lines.append("")

    errored = [s for s in data.spans if s.get("status") == "error"]
    if errored:
        lines.append(f"### Errored spans ({len(errored)})")
        lines.append("")
        for span in errored:
            error = span.get("error") or {}
            lines.append(
                f"- `{span.get('name', '?')}`: "
                f"**{error.get('type', 'unknown error')}** "
                f"{error.get('message', '')}".rstrip()
            )
        lines.append("")

    counters = data.metrics.get("counters", {})
    gauges = data.metrics.get("gauges", {})
    histograms = data.metrics.get("histograms", {})

    lines.append("## Metrics")
    lines.append("")
    if counters:
        lines.append("### Counters")
        lines.append("")
        lines.append(md_table(
            ["counter", "value"],
            [[name, f"{value:g}"] for name, value in counters.items()],
            "lr",
        ))
        lines.append("")
    if gauges:
        lines.append("### Gauges")
        lines.append("")
        lines.append(md_table(
            ["gauge", "last", "writes"],
            [
                [name, _fmt(payload.get("value"), ".6g"),
                 len(payload.get("trajectory", []))]
                for name, payload in gauges.items()
            ],
            "lrr",
        ))
        lines.append("")
    if histograms:
        lines.append("### Histograms")
        lines.append("")
        lines.append(md_table(
            ["histogram", "count", "mean", "std", "min", "p50", "p95", "max"],
            [
                [name, payload.get("count", 0)] + [
                    _fmt(payload.get(key))
                    for key in ("mean", "std", "min", "p50", "p95", "max")
                ]
                for name, payload in histograms.items()
            ],
            "lrrrrrrr",
        ))
        lines.append("")
    if not (counters or gauges or histograms):
        lines.append("_no metrics recorded_")
        lines.append("")

    if data.drift:
        _render_drift(data, lines)

    _render_dispatch(data, lines)

    _render_exec(data, lines)

    if data.profile or data.profile_summary:
        render_profile(data, lines)

    if data.alerts:
        lines.append(f"## Health alerts ({len(data.alerts)})")
        lines.append("")
        by_rule = Counter(alert.get("rule", "?") for alert in data.alerts)
        lines.append(
            ", ".join(f"{rule}: {count}" for rule, count in sorted(by_rule.items()))
        )
        lines.append("")
        for alert in data.alerts[-10:]:
            severity = alert.get("severity", "warning")
            lines.append(
                f"- [{severity}] `{alert.get('rule', '?')}` — "
                f"{alert.get('message', '')}"
            )
        lines.append("")

    if data.faults:
        lines.append(f"## Fault events ({len(data.faults)})")
        lines.append("")
        by_fault = Counter(fault.get("fault", "?") for fault in data.faults)
        lines.append(
            ", ".join(f"{name}: {count}" for name, count in sorted(by_fault.items()))
        )
        lines.append("")

    log_events = [e for e in data.events if e.get("kind") == "log"]
    lines.append(f"## Events ({len(data.events)} total, {len(log_events)} log)")
    lines.append("")
    by_level = Counter(event.get("level", "?") for event in log_events)
    if by_level:
        lines.append(
            ", ".join(f"{level}: {count}" for level, count in sorted(by_level.items()))
        )
        lines.append("")
    errors = [e for e in log_events if e.get("level") == "error"]
    if errors:
        lines.append("### Errors")
        lines.append("")
        for event in errors[-10:]:
            lines.append(f"- `{event.get('logger', '?')}`: {event.get('message', '')}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarise an observed run directory as markdown.",
    )
    parser.add_argument("run_dir", help="directory written by repro.obs.configure")
    parser.add_argument("--out", default=None, help="write to this file (default: stdout)")
    parser.add_argument("--json", action="store_true",
                        help="emit the loaded run as machine-readable JSON "
                             "instead of markdown")
    args = parser.parse_args(argv)

    try:
        data = load_run(args.run_dir)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    if args.json:
        report = json.dumps(run_to_json(data), indent=2, sort_keys=True) + "\n"
    else:
        report = render_report(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(report)
        print(f"wrote {args.out}")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
