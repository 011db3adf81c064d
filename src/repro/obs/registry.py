"""Run registry: an append-only index of every observed run.

The paper's claims are comparative (accuracy vs. T, training cost,
spiking activity), so runs only become useful once they are *findable*
and *comparable*.  Every :func:`repro.obs.configure` run that has a run
directory auto-registers here: one schema-versioned JSONL record is
appended to ``<root>/index.jsonl`` when the run starts (``status:
"running"``) and another when it ends (``"completed"`` / ``"error"``,
plus the artefact inventory of the run directory).  Readers fold the
append-only stream by run id — the last record wins field-by-field — so
a crash mid-run degrades to a visible ``running`` entry, never a
corrupt index.

The registry root resolves from the ``REPRO_RUNS_ROOT`` environment
variable (the test suite points it at a scratch directory) and defaults
to ``runs/`` under the current working directory.

Each start record carries:

- ``run_id``          — the observed run's id;
- ``run_dir``         — absolute path of the artefact directory;
- ``tags``            — the run-scoped context fields (arch / T / seed);
- ``config_fingerprint`` — stable hash of those tags;
- ``environment``     — the host fingerprint reused from
  :func:`repro.bench.environment_fingerprint`.

End records add ``status`` and ``artifacts`` (name → size in bytes of
every known artefact present).  ``kind: "baseline"`` marker records tag
one run as the comparison baseline for ``repro.obs diff --baseline``.

CLI::

    python -m repro.obs runs list
    python -m repro.obs runs show RUN_ID
    python -m repro.obs runs gc --keep 20
    python -m repro.obs runs tag-baseline RUN_ID
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Dict, List, Optional

from .core import parse_jsonl

RUNS_SCHEMA = "repro.obs.runs/v1"
RUNS_SCHEMA_VERSION = 1
INDEX_FILENAME = "index.jsonl"
ENV_ROOT_VAR = "REPRO_RUNS_ROOT"
ENV_DISABLE_VAR = "REPRO_RUNS_DISABLE"
DEFAULT_ROOT = "runs"

#: Artefact files a run directory may contain (the inventory scan).
KNOWN_ARTIFACTS = (
    "events.jsonl",
    "trace.jsonl",
    "metrics.json",
    "drift.jsonl",
    "faults.jsonl",
    "alerts.jsonl",
    "profile.jsonl",
    "profile_summary.json",
)


class BaselineError(LookupError):
    """The registry's baseline tag cannot serve a comparison.

    Raised with an actionable message (no tag, unknown run, or a tag
    left dangling after the run directory was deleted/gc'd) so
    ``diff --baseline`` fails cleanly instead of stack-tracing on a
    dead path.
    """


def runs_root() -> str:
    """The registry root directory (``REPRO_RUNS_ROOT`` or ``runs/``)."""
    return os.environ.get(ENV_ROOT_VAR) or DEFAULT_ROOT


def registration_enabled() -> bool:
    """Auto-registration kill switch (``REPRO_RUNS_DISABLE=1``)."""
    return os.environ.get(ENV_DISABLE_VAR, "") not in ("1", "true", "yes")


def config_fingerprint(mapping: dict) -> str:
    """Stable short hash of a configuration mapping.

    Non-JSON values stringify via ``repr``; key order never matters.
    """
    canonical = json.dumps(mapping, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def artifact_inventory(run_dir: str) -> Dict[str, int]:
    """``{artefact filename: size in bytes}`` for known files present."""
    inventory: Dict[str, int] = {}
    for name in KNOWN_ARTIFACTS:
        try:
            inventory[name] = os.path.getsize(os.path.join(run_dir, name))
        except OSError:
            continue
    return inventory


def _environment_fingerprint() -> dict:
    # Reused from the bench harness so registry entries and BENCH_*
    # baselines describe hosts identically.  Imported lazily: bench
    # imports repro.obs and eager cross-imports would cycle.
    from ..bench import environment_fingerprint

    env = environment_fingerprint()
    # Record the ambient parallel-executor config (worker count, start
    # method) so obs diff can flag cross-worker-count comparisons as
    # informational.  An observed run maps serially, so its artefacts do
    # not depend on the worker count; the row only says what was asked.
    try:
        from ..exec import active_executor_config

        executor = active_executor_config()
        if executor is not None:
            env = {**env, "executor": executor}
    except Exception:
        pass
    return env


class RunRegistry:
    """Reader/writer for one ``index.jsonl`` registry."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else runs_root()
        self.index_path = os.path.join(self.root, INDEX_FILENAME)

    # -- writing -------------------------------------------------------
    def append(self, record: dict) -> None:
        os.makedirs(self.root, exist_ok=True)
        with open(self.index_path, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(record, sort_keys=True, default=repr) + "\n")

    def register_start(self, run_id: str, run_dir: str, tags: dict) -> dict:
        record = {
            "schema": RUNS_SCHEMA,
            "schema_version": RUNS_SCHEMA_VERSION,
            "kind": "run",
            "run_id": run_id,
            "ts": time.time(),
            "status": "running",
            "run_dir": os.path.abspath(run_dir),
            "tags": dict(tags),
            "config_fingerprint": config_fingerprint(tags),
            "environment": _environment_fingerprint(),
        }
        self.append(record)
        return record

    def register_end(
        self, run_id: str, run_dir: str, status: str = "completed"
    ) -> dict:
        record = {
            "schema": RUNS_SCHEMA,
            "schema_version": RUNS_SCHEMA_VERSION,
            "kind": "run",
            "run_id": run_id,
            "ts": time.time(),
            "status": status,
            "artifacts": artifact_inventory(run_dir),
        }
        self.append(record)
        return record

    def set_baseline(self, run_id: str) -> dict:
        """Tag ``run_id`` as the registry baseline (last marker wins)."""
        resolved = self.get(run_id)
        if resolved is None:
            raise KeyError(f"run '{run_id}' is not in the registry")
        record = {
            "schema": RUNS_SCHEMA,
            "kind": "baseline",
            "run_id": resolved["run_id"],
            "ts": time.time(),
        }
        self.append(record)
        return record

    # -- reading -------------------------------------------------------
    def records(self) -> List[dict]:
        """Raw index records in append order (bad lines skipped)."""
        if not os.path.exists(self.index_path):
            return []
        # A torn/corrupt line never poisons the index.
        with open(self.index_path, "r", encoding="utf-8") as fp:
            records, _ = parse_jsonl(fp)
        return records

    def runs(self) -> List[dict]:
        """Folded run entries, oldest first (last record wins per field)."""
        folded: Dict[str, dict] = {}
        order: List[str] = []
        for record in self.records():
            if record.get("kind") != "run" or "run_id" not in record:
                continue
            run_id = record["run_id"]
            if run_id not in folded:
                folded[run_id] = {"first_ts": record.get("ts")}
                order.append(run_id)
            merged = folded[run_id]
            for key, value in record.items():
                if key == "ts":
                    merged["ts"] = value
                else:
                    merged[key] = value
        return [folded[run_id] for run_id in order]

    def get(self, run_id: str) -> Optional[dict]:
        """Folded entry for ``run_id`` (exact match, then unique prefix)."""
        runs = self.runs()
        for run in runs:
            if run["run_id"] == run_id:
                return run
        matches = [r for r in runs if r["run_id"].startswith(run_id)]
        if len(matches) == 1:
            return matches[0]
        return None

    def baseline_id(self) -> Optional[str]:
        """Run id of the last ``baseline`` marker, or ``None``."""
        marked = None
        for record in self.records():
            if record.get("kind") == "baseline" and record.get("run_id"):
                marked = record["run_id"]
        return marked

    def baseline(self) -> Optional[dict]:
        """Folded entry of the tagged baseline run, or ``None``."""
        run_id = self.baseline_id()
        return self.get(run_id) if run_id else None

    def require_baseline(self) -> dict:
        """The tagged baseline entry, guaranteed usable for comparison.

        Raises :class:`BaselineError` with an actionable message when no
        baseline is tagged, the tag names an unknown run, or the tag is
        *dangling* — its run directory was deleted or gc'd out from
        under it.
        """
        run_id = self.baseline_id()
        if run_id is None:
            raise BaselineError(
                "no baseline run tagged in the registry (use "
                "`python -m repro.obs runs tag-baseline RUN_ID`)"
            )
        run = self.get(run_id)
        if run is None:
            raise BaselineError(
                f"baseline tag points at unknown run '{run_id}' — re-tag "
                "with `python -m repro.obs runs tag-baseline RUN_ID`"
            )
        run_dir = run.get("run_dir")
        if not run_dir or not os.path.isdir(run_dir):
            raise BaselineError(
                f"baseline run '{run_id}' points at a missing directory "
                f"({run_dir or 'no run_dir recorded'}) — the tag is "
                "dangling; run `python -m repro.obs runs gc` to clear it, "
                "then tag a live run"
            )
        return run

    # -- retention -----------------------------------------------------
    def gc(
        self,
        keep: Optional[int] = None,
        drop_missing: bool = True,
        delete_dirs: bool = False,
    ) -> dict:
        """Compact the index: fold records, prune stale runs.

        - ``drop_missing`` removes entries whose run directory no longer
          exists on disk — including the tagged baseline, whose tag is
          then *cleared* (a tag pointing at a dead path would make every
          later ``diff --baseline`` fail);
        - ``keep`` retains only the newest N surviving runs (by last
          timestamp); a live tagged baseline run is always retained;
        - ``delete_dirs`` additionally deletes the pruned runs' artefact
          directories (never the baseline's).

        The index is rewritten atomically (one folded record per
        surviving run plus the baseline marker).  Returns a summary
        ``{"kept": ..., "dropped": ..., "dirs_deleted": ...,
        "baseline_cleared": ...}``.
        """
        if keep is not None and keep < 0:
            raise ValueError("keep must be non-negative")
        runs = self.runs()
        baseline_id = self.baseline_id()
        baseline_cleared = False
        survivors, dropped = [], []
        for run in runs:
            run_dir = run.get("run_dir")
            missing = not (run_dir and os.path.isdir(run_dir))
            if drop_missing and missing:
                if run["run_id"] == baseline_id:
                    baseline_cleared = True
                dropped.append(run)
            else:
                survivors.append(run)
        if baseline_cleared:
            baseline_id = None
        if keep is not None and len(survivors) > keep:
            survivors.sort(key=lambda r: r.get("ts") or 0.0)
            pruned = []
            while len(survivors) > keep and survivors:
                victim = None
                for candidate in survivors:
                    if candidate["run_id"] != baseline_id:
                        victim = candidate
                        break
                if victim is None:
                    break  # only the baseline left
                survivors.remove(victim)
                pruned.append(victim)
            dropped.extend(pruned)
        dirs_deleted = 0
        if delete_dirs:
            for run in dropped:
                run_dir = run.get("run_dir")
                if run_dir and os.path.isdir(run_dir):
                    shutil.rmtree(run_dir, ignore_errors=True)
                    dirs_deleted += 1
        survivors.sort(key=lambda r: r.get("first_ts") or 0.0)
        self._rewrite(survivors, baseline_id)
        return {
            "kept": len(survivors),
            "dropped": len(dropped),
            "dirs_deleted": dirs_deleted,
            "baseline_cleared": baseline_cleared,
        }

    def _rewrite(self, runs: List[dict], baseline_id: Optional[str]) -> None:
        os.makedirs(self.root, exist_ok=True)
        tmp_path = f"{self.index_path}.tmp-{os.getpid()}"
        surviving_ids = set()
        with open(tmp_path, "w", encoding="utf-8") as fp:
            for run in runs:
                record = {k: v for k, v in run.items() if k != "first_ts"}
                record.setdefault("kind", "run")
                fp.write(json.dumps(record, sort_keys=True, default=repr) + "\n")
                surviving_ids.add(run["run_id"])
            if baseline_id and baseline_id in surviving_ids:
                fp.write(json.dumps({
                    "schema": RUNS_SCHEMA,
                    "kind": "baseline",
                    "run_id": baseline_id,
                    "ts": time.time(),
                }, sort_keys=True) + "\n")
        os.replace(tmp_path, self.index_path)


# ----------------------------------------------------------------------
# Auto-registration hooks (called by repro.obs.core)
# ----------------------------------------------------------------------
def register_run_start(run_id: str, run_dir: str, tags: dict) -> None:
    """Best-effort start registration; never breaks the observed run."""
    if not registration_enabled():
        return
    try:
        RunRegistry().register_start(run_id, run_dir, tags)
    except OSError:
        pass


def register_run_end(run_id: str, run_dir: str, status: str) -> None:
    """Best-effort end registration; never breaks the observed run."""
    if not registration_enabled():
        return
    try:
        RunRegistry().register_end(run_id, run_dir, status=status)
    except OSError:
        pass


def render_runs_table(runs: List[dict], baseline_id: Optional[str] = None) -> str:
    """Fixed-width listing for ``python -m repro.obs runs list``."""
    lines = [
        f"{'run id':<24} {'status':<10} {'arch':<9} {'T':>3} {'seed':>5} "
        f"{'artefacts':>9}  run dir",
        "-" * 96,
    ]
    for run in runs:
        tags = run.get("tags") or {}
        marker = "*" if run["run_id"] == baseline_id else " "
        lines.append(
            f"{marker}{run['run_id']:<23} {run.get('status', '?'):<10} "
            f"{str(tags.get('arch', '-')):<9} "
            f"{str(tags.get('timesteps', tags.get('T', '-'))):>3} "
            f"{str(tags.get('seed', '-')):>5} "
            f"{len(run.get('artifacts') or {}):>9}  {run.get('run_dir', '-')}"
        )
    if baseline_id:
        lines.append("")
        lines.append(f"* baseline: {baseline_id}")
    return "\n".join(lines)
