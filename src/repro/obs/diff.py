"""Run-diff engine: align two observed runs and gate on regressions.

``python -m repro.obs diff RUN_A RUN_B`` loads both run directories
through the one shared parser (:func:`repro.obs.report.load_run`),
aligns their quantitative series by name, computes deltas under
configurable relative/absolute tolerances, and exits non-zero when any
delta regresses — the same exit-code contract as
``repro.bench compare``, so the diff can gate CI directly.  With
``--baseline`` the second run resolves to the run registry's tagged
baseline (:mod:`repro.obs.registry`).

Aligned series
--------------
- metric **counters** (value), **gauges** (last value) and
  **histograms** (count and mean) from ``metrics.json``;
- per-layer **conversion drift** (``measured_gap`` / ``predicted_gap``
  at each run's latest snapshot) from ``drift.jsonl``;
- **fault events** per fault type from ``faults.jsonl``;
- **health alerts** per rule from ``alerts.jsonl``;
- **span timings** aggregated per span name from ``trace.jsonl`` —
  reported for context but *never* gated: wall-clock differs between
  bit-identical runs, and a gate that flaps on scheduler noise is worse
  than no gate (``repro.bench`` owns timing regressions);
- **op-profile aggregates** (per-op totals/counts, per-layer totals)
  from the run's ``repro.obs.profile/v1`` summary — informational like
  span timings, never gated.

Direction semantics
-------------------
Each aligned quantity has a direction inferred from its name:
``accuracy``-like metrics regress when they *drop*, ``loss`` / ``gap``
/ fault / alert counts when they *rise*, and everything else (spike
counts, thresholds, energy estimates, ...) when it *changes* at all —
two same-seed runs of this deterministic substrate must agree exactly,
so any significant unexplained difference is a finding.  A delta is
significant when ``|delta| > atol + rtol * |baseline value|``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .report import RunData, load_run

DEFAULT_RTOL = 0.01
DEFAULT_ATOL = 1e-9

#: Direction of badness: "up" = higher is better (drop regresses),
#: "down" = lower is better (rise regresses), "both" = any significant
#: change regresses, "skip" = informational only (never gated).
_UP_RE = re.compile(r"accuracy|improvement")
_DOWN_RE = re.compile(
    r"loss|gap|residual|faults\.|fault:|alerts|error|spikes_dropped|retries"
)
# Wall-clock-valued series (timings, memory, the ``profile:`` family)
# never gate: they vary between bit-identical replays, so they align for
# context only.  ``exec.*`` executor telemetry (pool size, map counts,
# serial downgrades, pool timings) and the ``exec_*`` health-alert rule
# describe scheduling, not results: a workers=2 observed run (which maps
# serially) must diff clean against a workers=1 one.  The informational
# env:executor.* rows (from the run registry's environment fingerprint)
# flag cross-worker-count comparisons instead.
_SKIP_RE = re.compile(
    r"seconds|duration_s|\.ts$|wall|span:|bench\.|memory|bytes|profile:"
    r"|latency|exec[._]"
)


def metric_direction(name: str) -> str:
    """Infer gating semantics from a metric/series name."""
    if _SKIP_RE.search(name):
        return "skip"
    if _UP_RE.search(name):
        return "up"
    if _DOWN_RE.search(name):
        return "down"
    return "both"


@dataclass
class Delta:
    """One aligned quantity's baseline-vs-candidate comparison."""

    name: str
    kind: str  # counter | gauge | histogram | drift | fault | alert | span
    baseline: Optional[float]
    candidate: Optional[float]
    direction: str
    significant: bool
    regressed: bool
    note: str = ""  # "added" / "missing" / ""

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None:
            return None
        return self.candidate - self.baseline


@dataclass
class RunDiff:
    """Full diff of a candidate run against a baseline run."""

    baseline_dir: str
    candidate_dir: str
    rtol: float
    atol: float
    deltas: List[Delta] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def changed(self) -> List[Delta]:
        return [d for d in self.deltas if d.significant]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict:
        return {
            "schema": "repro.obs.diff/v1",
            "baseline": self.baseline_dir,
            "candidate": self.candidate_dir,
            "rtol": self.rtol,
            "atol": self.atol,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "deltas": [
                {
                    "name": d.name,
                    "kind": d.kind,
                    "baseline": d.baseline,
                    "candidate": d.candidate,
                    "delta": d.delta,
                    "direction": d.direction,
                    "significant": d.significant,
                    "regressed": d.regressed,
                    "note": d.note,
                }
                for d in self.deltas
            ],
        }

    def render(self, show_unchanged: bool = False) -> str:
        """Comparison table (changed rows by default) plus the verdict."""

        def fmt(value: Optional[float]) -> str:
            return f"{value:.6g}" if value is not None else "-"

        lines = [
            f"baseline : {self.baseline_dir}",
            f"candidate: {self.candidate_dir}",
            f"tolerance: rtol={self.rtol:g} atol={self.atol:g}",
            "",
            f"{'series':<52} {'baseline':>12} {'candidate':>12}  status",
            "-" * 92,
        ]
        shown = 0
        for delta in self.deltas:
            interesting = delta.significant or delta.note
            if not interesting and not show_unchanged:
                continue
            if delta.regressed:
                status = "REGRESSED"
            elif delta.note:
                status = delta.note
            elif delta.significant:
                status = "changed"
            else:
                status = "ok"
            name = delta.name if len(delta.name) <= 52 else delta.name[:49] + "..."
            lines.append(
                f"{name:<52} {fmt(delta.baseline):>12} "
                f"{fmt(delta.candidate):>12}  {status}"
            )
            shown += 1
        if shown == 0:
            lines.append("(no significant differences)")
        lines.append("")
        gated = [d for d in self.deltas if d.direction != "skip"]
        verdict = (
            f"OK: no regressions across {len(gated)} gated series "
            f"({len(self.deltas)} aligned)"
            if self.ok
            else f"FAIL: {len(self.regressions)} regression(s) across "
            f"{len(gated)} gated series"
        )
        lines.append(verdict)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Series extraction — flatten one run into {name: (kind, value)}
# ----------------------------------------------------------------------
def extract_series(data: RunData) -> Dict[str, Tuple[str, float]]:
    """Flatten one loaded run into comparable named scalars."""
    series: Dict[str, Tuple[str, float]] = {}
    metrics = data.metrics or {}
    for name, value in (metrics.get("counters") or {}).items():
        if isinstance(value, (int, float)):
            series[f"counter:{name}"] = ("counter", float(value))
    for name, payload in (metrics.get("gauges") or {}).items():
        value = (payload or {}).get("value")
        if isinstance(value, (int, float)):
            series[f"gauge:{name}"] = ("gauge", float(value))
    for name, payload in (metrics.get("histograms") or {}).items():
        payload = payload or {}
        count = payload.get("count")
        mean = payload.get("mean")
        if isinstance(count, (int, float)):
            series[f"histogram:{name}.count"] = ("histogram", float(count))
        if isinstance(mean, (int, float)):
            series[f"histogram:{name}.mean"] = ("histogram", float(mean))
    # Latest-snapshot per-layer drift.
    if data.drift:
        latest = max(r.get("snapshot", 0) for r in data.drift)
        for record in data.drift:
            if record.get("snapshot", 0) != latest:
                continue
            layer = record.get("layer", "?")
            for key in ("measured_gap", "predicted_gap"):
                value = record.get(key)
                if isinstance(value, (int, float)):
                    series[f"drift:{key}{{layer={layer}}}"] = ("drift", float(value))

    by_fault: Dict[str, int] = {}
    for fault in data.faults:
        name = str(fault.get("fault", "?"))
        by_fault[name] = by_fault.get(name, 0) + 1
    for name, count in by_fault.items():
        series[f"fault:{name}.events"] = ("fault", float(count))

    by_rule: Dict[str, int] = {}
    for alert in data.alerts:
        rule = str(alert.get("rule", "?"))
        by_rule[rule] = by_rule.get(rule, 0) + 1
    for rule, count in by_rule.items():
        series[f"alerts:{rule}"] = ("alert", float(count))

    # Profile aggregates: per-op totals/counts and per-layer totals.
    # Timing-valued and therefore informational only — the `profile:`
    # prefix matches _SKIP_RE, so these align but never gate (the op
    # *counts* are deterministic, but one knob for the family keeps the
    # contract simple: repro.bench owns perf gating).
    profile_summary = data.profile_summary
    if not profile_summary and data.profile:
        from .profile import aggregate as _aggregate

        profile_summary = _aggregate(data.profile)
    for name, entry in (profile_summary.get("by_op") or {}).items():
        for key in ("count", "total_s"):
            value = (entry or {}).get(key)
            if isinstance(value, (int, float)):
                series[f"profile:op.{name}.{key}"] = ("profile", float(value))
    for name, entry in (profile_summary.get("by_layer") or {}).items():
        value = (entry or {}).get("total_s")
        if isinstance(value, (int, float)):
            series[f"profile:layer.{name}.total_s"] = ("profile", float(value))

    by_span: Dict[str, float] = {}
    for span in data.spans:
        duration = span.get("duration_s")
        if isinstance(duration, (int, float)):
            name = str(span.get("name", "?"))
            by_span[name] = by_span.get(name, 0.0) + float(duration)
    for name, total in by_span.items():
        series[f"span:{name}.total_s"] = ("span", total)
    return series


def diff_runs(
    baseline: RunData,
    candidate: RunData,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> RunDiff:
    """Align ``candidate`` against ``baseline`` and flag regressions."""
    if rtol < 0 or atol < 0:
        raise ValueError("tolerances must be non-negative")
    base_series = extract_series(baseline)
    cand_series = extract_series(candidate)
    diff = RunDiff(
        baseline_dir=baseline.run_dir,
        candidate_dir=candidate.run_dir,
        rtol=rtol,
        atol=atol,
    )
    for name in sorted(set(base_series) | set(cand_series)):
        in_base = name in base_series
        in_cand = name in cand_series
        kind = (base_series.get(name) or cand_series.get(name))[0]
        direction = metric_direction(name)
        if in_base and in_cand:
            base_value = base_series[name][1]
            cand_value = cand_series[name][1]
            change = cand_value - base_value
            significant = abs(change) > atol + rtol * abs(base_value)
            if direction == "skip" or not significant:
                regressed = False
            elif direction == "up":
                regressed = change < 0
            elif direction == "down":
                regressed = change > 0
            else:  # "both"
                regressed = True
            diff.deltas.append(Delta(
                name=name, kind=kind,
                baseline=base_value, candidate=cand_value,
                direction=direction, significant=significant,
                regressed=regressed,
            ))
        elif in_cand:
            # New series.  A new lower-is-better series with a non-zero
            # value (fault events, alerts) is a regression; anything
            # else is new instrumentation and stays informational.
            value = cand_series[name][1]
            regressed = direction == "down" and abs(value) > atol
            diff.deltas.append(Delta(
                name=name, kind=kind, baseline=None, candidate=value,
                direction=direction, significant=regressed,
                regressed=regressed, note="added",
            ))
        else:
            # Vanished series.  A disappeared higher-is-better metric
            # (accuracy stopped being recorded) gates; the rest is
            # dropped instrumentation.
            value = base_series[name][1]
            regressed = direction == "up"
            diff.deltas.append(Delta(
                name=name, kind=kind, baseline=value, candidate=None,
                direction=direction, significant=regressed,
                regressed=regressed, note="missing",
            ))
    return diff


def _registered_executor_config(run_dir: str) -> Optional[dict]:
    """Best-effort registry lookup of a run's executor fingerprint."""
    import os

    try:
        from .registry import RunRegistry

        target = os.path.abspath(run_dir)
        for run in reversed(RunRegistry().runs()):
            if run.get("run_dir") == target:
                environment = run.get("environment") or {}
                executor = environment.get("executor")
                return dict(executor) if isinstance(executor, dict) else {}
    except Exception:
        pass
    return None


def _executor_env_deltas(baseline_dir: str, candidate_dir: str) -> List[Delta]:
    """Informational rows when the runs used different executor configs.

    Results are worker-count-independent by contract, but traces and
    telemetry legitimately differ between serial and parallel runs —
    so a cross-worker-count comparison deserves a visible (never
    gating) flag rather than a silent alignment.
    """
    base = _registered_executor_config(baseline_dir)
    cand = _registered_executor_config(candidate_dir)
    if base is None and cand is None:
        return []
    base = base or {}
    cand = cand or {}
    deltas: List[Delta] = []
    defaults = {"workers": 1, "start_method": "serial"}
    for key in ("workers", "start_method"):
        base_value = base.get(key, defaults[key])
        cand_value = cand.get(key, defaults[key])
        if base_value == cand_value:
            continue
        numeric = isinstance(base_value, (int, float)) and isinstance(
            cand_value, (int, float)
        )
        deltas.append(Delta(
            name=f"env:executor.{key}",
            kind="env",
            baseline=float(base_value) if numeric else None,
            candidate=float(cand_value) if numeric else None,
            direction="skip",
            significant=False,
            regressed=False,
            note=f"informational: {base_value} vs {cand_value}",
        ))
    return deltas


def diff_run_dirs(
    baseline_dir: str,
    candidate_dir: str,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> RunDiff:
    """Load two run directories and diff them.

    On top of the series alignment, cross-worker-count comparisons
    (detected from the run registry's environment fingerprint) add
    informational ``env:executor.*`` rows that never gate.
    """
    diff = diff_runs(
        load_run(baseline_dir), load_run(candidate_dir), rtol=rtol, atol=atol
    )
    diff.deltas.extend(_executor_env_deltas(baseline_dir, candidate_dir))
    return diff


def main(argv=None) -> int:
    """CLI body shared with ``python -m repro.obs diff``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Diff two observed run directories; exit 1 on regression.",
    )
    parser.add_argument(
        "run_a",
        help="baseline run directory (or the candidate with --baseline)",
    )
    parser.add_argument(
        "run_b", nargs="?", default=None,
        help="candidate run directory (omit with --baseline)",
    )
    parser.add_argument(
        "--baseline", dest="use_registry_baseline", action="store_true",
        help="diff RUN_A against the run registry's tagged baseline run",
    )
    parser.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    parser.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    parser.add_argument("--json", action="store_true",
                        help="emit the diff as JSON instead of a table")
    parser.add_argument("--all", action="store_true",
                        help="show unchanged series too")
    args = parser.parse_args(argv)

    if args.use_registry_baseline:
        if args.run_b is not None:
            parser.error("give either two run directories or --baseline, not both")
        from .registry import BaselineError, RunRegistry

        try:
            tagged = RunRegistry().require_baseline()
        except BaselineError as exc:
            parser.error(str(exc))
        baseline_dir, candidate_dir = tagged["run_dir"], args.run_a
    elif args.run_b is None:
        parser.error("candidate run directory required (or pass --baseline)")
    else:
        baseline_dir, candidate_dir = args.run_a, args.run_b

    try:
        diff = diff_run_dirs(
            baseline_dir, candidate_dir, rtol=args.rtol, atol=args.atol
        )
    except FileNotFoundError as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render(show_unchanged=args.all))
    return 0 if diff.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
