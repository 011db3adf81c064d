"""Multi-seed robustness sweeps.

Reduced-scale runs are noisy; a claim like "the alpha/beta conversion
beats the unscaled one at T=2" is only meaningful if it holds across
seeds.  This module repeats the pipeline over a seed list and reports
mean/std/min/max for each accuracy stage, plus the per-seed win/loss
record of the proposed conversion against a baseline strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig
from .pipeline import run_pipeline


@dataclass
class SeedSweepResult:
    """Aggregated accuracies over a seed sweep.

    ``failed_seeds`` lists seeds whose parallel task could not complete
    (quarantined / exhausted retries); their accuracies are excluded
    from the aggregation and the sweep is reported ``partial``.
    """

    config: ExperimentConfig
    seeds: List[int]
    dnn: List[float]
    conversion: List[float]
    snn: List[float]
    failed_seeds: List[Dict] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "partial" if self.failed_seeds else "ok"

    def summary(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for name, values in (
            ("dnn", self.dnn), ("conversion", self.conversion), ("snn", self.snn)
        ):
            arr = np.asarray(values)
            out[name] = {
                "mean": float(arr.mean()),
                "std": float(arr.std()),
                "min": float(arr.min()),
                "max": float(arr.max()),
            }
        return out


def _seed_task(payload: Tuple[ExperimentConfig, int, str, bool]) -> Tuple[float, float, float]:
    """Worker-side pipeline run for one seed."""
    config, seed, strategy, fine_tune = payload
    result = run_pipeline(
        replace(config, seed=int(seed)), strategy=strategy, fine_tune=fine_tune
    )
    return (result.dnn_accuracy, result.conversion_accuracy, result.snn_accuracy)


def seed_sweep(
    config: ExperimentConfig,
    seeds: Sequence[int],
    strategy: str = "proposed",
    fine_tune: bool = True,
    workers: int = 1,
    executor=None,
) -> SeedSweepResult:
    """Run the pipeline once per seed and collect the three accuracies.

    ``workers > 1`` (or an explicit :class:`repro.exec.ParallelExecutor`)
    fans the per-seed pipelines out across worker processes.  Every
    pipeline stage is seeded, so per-seed results are bitwise identical
    to the serial sweep; they are assembled back in seed-list order
    regardless of completion order.  Seeds whose task fails terminally
    are dropped into ``failed_seeds`` rather than aborting the sweep.
    """
    if not seeds:
        raise ValueError("need at least one seed")

    from ..exec import resolve_executor

    executor = resolve_executor(workers, executor)
    seed_list = [int(s) for s in seeds]
    failed: List[Dict] = []
    if executor is not None and executor.workers > 1 and len(seed_list) > 1:
        payloads = [(config, seed, strategy, fine_tune) for seed in seed_list]
        outcome = executor.map(_seed_task, payloads, label="multiseed")
        triples: List[Optional[Tuple[float, float, float]]] = list(outcome.results)
        failed = [
            {**failure.as_dict(), "seed": seed_list[index]}
            for index, failure in sorted(outcome.failures.items())
        ]
        if all(t is None for t in triples):
            from ..exec import ExecutorError

            raise ExecutorError(
                f"seed sweep lost every seed: {[f['seed'] for f in failed]}"
            )
    else:
        triples = [_seed_task((config, seed, strategy, fine_tune)) for seed in seed_list]

    kept = [seed for seed, t in zip(seed_list, triples) if t is not None]
    values = [t for t in triples if t is not None]
    dnn = [t[0] for t in values]
    conversion = [t[1] for t in values]
    snn = [t[2] for t in values]
    return SeedSweepResult(
        config=config, seeds=kept,
        dnn=dnn, conversion=conversion, snn=snn,
        failed_seeds=failed,
    )


def render_seed_sweep(result: SeedSweepResult) -> str:
    """Per-seed accuracy table plus mean/std/min/max aggregation."""
    from .reporting import format_table

    config = result.config
    rows = [
        [str(seed), f"{d:.2f}", f"{c:.2f}", f"{s:.2f}"]
        for seed, d, c, s in zip(result.seeds, result.dnn, result.conversion, result.snn)
    ]
    summary = result.summary()
    for stat in ("mean", "std", "min", "max"):
        rows.append([
            stat,
            f"{summary['dnn'][stat]:.2f}",
            f"{summary['conversion'][stat]:.2f}",
            f"{summary['snn'][stat]:.2f}",
        ])
    table = format_table(
        ["seed", "DNN %", "converted %", "fine-tuned %"],
        rows,
        title=(
            f"Seed sweep: {config.arch}, {config.dataset}, "
            f"T={config.timesteps} ({len(result.seeds)} seeds)"
        ),
    )
    if result.failed_seeds:
        lines = [
            f"  seed {f['seed']}: {f['kind']} ({f['message']})"
            for f in result.failed_seeds
        ]
        table += "\n\nPARTIAL SWEEP: failed seeds\n" + "\n".join(lines)
    return table


def strategy_win_rate(
    config: ExperimentConfig,
    seeds: Sequence[int],
    strategy_a: str = "proposed",
    strategy_b: str = "threshold_relu",
) -> Dict:
    """Per-seed conversion-accuracy comparison of two strategies.

    Returns the per-seed accuracies and the fraction of seeds where
    ``strategy_a``'s conversion accuracy is at least ``strategy_b``'s.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    a_acc, b_acc = [], []
    for seed in seeds:
        seeded = replace(config, seed=int(seed))
        a = run_pipeline(seeded, strategy=strategy_a, fine_tune=False)
        b = run_pipeline(seeded, strategy=strategy_b, fine_tune=False)
        a_acc.append(a.conversion_accuracy)
        b_acc.append(b.conversion_accuracy)
    wins = sum(1 for a, b in zip(a_acc, b_acc) if a >= b)
    return {
        "seeds": [int(s) for s in seeds],
        strategy_a: a_acc,
        strategy_b: b_acc,
        "win_rate": wins / len(seeds),
    }
