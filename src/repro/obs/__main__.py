"""Command-line entry point for the observability toolkit.

::

    python -m repro.obs runs list
    python -m repro.obs runs show RUN_ID
    python -m repro.obs runs gc --keep 20 [--delete-dirs]
    python -m repro.obs runs tag-baseline RUN_ID
    python -m repro.obs diff RUN_A RUN_B [--rtol ... --atol ... --json]
    python -m repro.obs diff RUN --baseline
    python -m repro.obs profile RUN_DIR [--top 10] [--json]
    python -m repro.obs profile RUN_DIR --chrome-trace out.json

``diff`` and ``profile`` delegate to :mod:`repro.obs.diff` and
:mod:`repro.obs.profile`; ``runs`` operates on the registry at
``$REPRO_RUNS_ROOT`` (default ``runs/``).  The markdown report of one
run is :mod:`repro.obs.report`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import diff as diff_cli
from . import profile as profile_cli
from .registry import RunRegistry, render_runs_table, runs_root


def _runs_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs runs",
        description="Inspect and maintain the observed-run registry.",
    )
    parser.add_argument("--root", default=None,
                        help=f"registry root (default: {runs_root()})")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list registered runs")
    list_p.add_argument("--json", action="store_true",
                        help="emit folded entries as JSON")

    show_p = sub.add_parser("show", help="show one run (id or unique prefix)")
    show_p.add_argument("run_id")

    gc_p = sub.add_parser("gc", help="compact the index and prune stale runs")
    gc_p.add_argument("--keep", type=int, default=None,
                      help="retain only the newest N runs")
    gc_p.add_argument("--keep-missing", action="store_true",
                      help="keep entries whose run directory is gone")
    gc_p.add_argument("--delete-dirs", action="store_true",
                      help="also delete pruned runs' artefact directories")

    tag_p = sub.add_parser("tag-baseline",
                           help="mark a run as the diff baseline")
    tag_p.add_argument("run_id")

    args = parser.parse_args(argv)
    registry = RunRegistry(root=args.root)

    if args.command == "list":
        runs = registry.runs()
        if args.json:
            print(json.dumps(runs, indent=2, sort_keys=True, default=repr))
        elif runs:
            print(render_runs_table(runs, registry.baseline_id()))
        else:
            print(f"no runs registered under {registry.root}/")
        return 0

    if args.command == "show":
        run = registry.get(args.run_id)
        if run is None:
            print(f"error: run '{args.run_id}' not found in {registry.index_path}",
                  file=sys.stderr)
            return 2
        print(json.dumps(run, indent=2, sort_keys=True, default=repr))
        return 0

    if args.command == "gc":
        summary = registry.gc(
            keep=args.keep,
            drop_missing=not args.keep_missing,
            delete_dirs=args.delete_dirs,
        )
        print(
            f"gc: kept {summary['kept']} run(s), dropped {summary['dropped']}"
            + (f", deleted {summary['dirs_deleted']} dir(s)"
               if args.delete_dirs else "")
        )
        if summary.get("baseline_cleared"):
            print(
                "warning: the tagged baseline's run directory was missing — "
                "cleared the dangling baseline tag (re-tag with "
                "`python -m repro.obs runs tag-baseline RUN_ID`)",
                file=sys.stderr,
            )
        return 0

    if args.command == "tag-baseline":
        try:
            registry.set_baseline(args.run_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(f"baseline: {registry.baseline_id()}")
        return 0

    return 2  # unreachable with required=True


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability toolkit: run registry, diffs, op profiles.",
    )
    parser.add_argument("tool",
                        choices=("runs", "diff", "profile"),
                        help="sub-tool to run")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.tool == "runs":
        return _runs_main(args.rest)
    if args.tool == "diff":
        return diff_cli.main(args.rest)
    return profile_cli.main(args.rest)


if __name__ == "__main__":
    raise SystemExit(main())
