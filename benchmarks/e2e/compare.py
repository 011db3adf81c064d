"""Compare two directories of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py BASE_DIR CAND_DIR

Each directory holds the ``<workload>/run-*.json`` records that
``run.py --out DIR`` writes.  For every workload x end-to-end metric the
comparison prints both sides' median and quartiles over the untraced runs
and a verdict against the bound fixed in ``BENCHMARK.json``:

- ``worse``: the candidate's median is worse than the base's by more
  than the bound;
- ``better``: the medians differ by more than the base's own spread
  (quartile distance) and the candidate wins at least 9 of 10 runs
  paired by seed (every pair of runs when no seeds match);
- ``unresolved``: a side's spread exceeds the bound, unless every
  candidate run beats every base run;
- ``within bound`` otherwise.

When both sides hold traced runs, the per-layer metrics follow (medians,
no verdict).  Records whose environment fingerprints (CPUs, BLAS
threads, Python, NumPy) differ, or one side mixing commits, are refused
with exit code 2; exit code 1 means some metric is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
ENVIRONMENT = ("cpu_count", "cpus_usable", "blas_threads", "python", "numpy")


def load_runs(directory) -> list:
    runs = []
    for path in sorted(Path(directory).glob("*/run-*.json")):
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    if not runs:
        raise SystemExit(f"no run records under {directory}")
    return runs


def fingerprint_problems(sides) -> list:
    problems = []
    environments = {
        json.dumps({k: run["fingerprint"][k] for k in ENVIRONMENT}, sort_keys=True)
        for runs in sides for run in runs
    }
    if len(environments) > 1:
        problems.append("environment fingerprints differ: " + " | ".join(sorted(environments)))
    for runs in sides:
        commits = {(run["fingerprint"]["commit"], run["fingerprint"]["dirty"]) for run in runs}
        if len(commits) > 1:
            problems.append(f"one directory mixes commits: {sorted(map(str, commits))}")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def series(runs, workload, metric, trace=0):
    """Values by seed, in run order."""
    by_seed = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace and metric in run["metrics"]:
            by_seed.setdefault(run["seed"], []).append(run["metrics"][metric]["value"])
    return by_seed


def flatten(by_seed):
    return [value for values in by_seed.values() for value in values]


def verdict(base, cand, better: str, bound: float, pair_wins):
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median(cand) - median(base)) / abs(median(base))
    all_better = all(sign * c < sign * b for c in cand for b in base)
    if max(spread(base), spread(cand)) > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    wins_enough = all_better if pair_wins is None else pair_wins >= 0.9
    if -worse_by > spread(base) and wins_enough:
        return "better"
    return "within bound"


def pair_win_share(base_by_seed, cand_by_seed, better: str):
    sign = 1.0 if better == "lower" else -1.0
    wins = pairs = 0
    for seed in sorted(set(base_by_seed) & set(cand_by_seed)):
        for b, c in zip(base_by_seed[seed], cand_by_seed[seed]):
            pairs += 1
            wins += sign * c < sign * b
    return wins / pairs if pairs else None


def describe(values) -> str:
    q1, q3 = quartiles(values)
    return f"{median(values):.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(base_runs, cand_runs, spec) -> int:
    status = 0
    workloads = sorted({r["workload"] for r in base_runs} & {r["workload"] for r in cand_runs})
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            base_by_seed = series(base_runs, workload, name)
            cand_by_seed = series(cand_runs, workload, name)
            base, cand = flatten(base_by_seed), flatten(cand_by_seed)
            if not base or not cand:
                continue
            wins = pair_win_share(base_by_seed, cand_by_seed, better)
            result = verdict(base, cand, better, bound, wins)
            status = 1 if result in ("worse", "unresolved") else status
            change = median(cand) / median(base) - 1.0
            paired = "" if wins is None else f" pair-wins {wins:.0%}"
            print(f"{workload:14s} {name:14s} {metric['unit']:5s} "
                  f"base {describe(base):36s} cand {describe(cand):36s} "
                  f"{change:+7.2%} (bound {bound:.0%}, {better} is better){paired}  {result}")
        for metric in spec["per_layer"]:
            base = flatten(series(base_runs, workload, metric["name"], trace=1))
            cand = flatten(series(cand_runs, workload, metric["name"], trace=1))
            if base and cand and (median(base) or median(cand)):
                print(f"  {workload:14s} {metric['name']:36s} {metric['unit']:5s} "
                      f"base {median(base):10.5g}  cand {median(cand):10.5g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("cand")
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    sides = [load_runs(args.base), load_runs(args.cand)]
    problems = fingerprint_problems(sides)
    if problems:
        for problem in problems:
            print(f"refused: {problem}", file=sys.stderr)
        return 2
    return compare(sides[0], sides[1], spec)


if __name__ == "__main__":
    sys.exit(main())
