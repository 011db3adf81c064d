"""Parallel-executor smoke check (``make exec-smoke``).

A fast, deterministic end-to-end pass over the execution machinery:

1. ``tree_reduce`` combines in a fixed order regardless of input
   length parity, and ``map``/``map_reduce`` return bitwise-identical
   results at workers 1, 2 and 4;
2. a chaos-killed worker (deterministic :class:`~repro.faults.ChaosSpec`)
   changes **nothing** about the results — the in-flight task is
   re-dispatched and the sweep stays bitwise-identical;
3. a poison task (kills every worker that touches it) is quarantined:
   the map completes with ``status == "partial"`` and an explicit
   failure record instead of hanging or crashing the parent;
4. an unavailable start method degrades gracefully to serial with the
   same results;
5. an unobserved micro fault sweep is bitwise-identical serial vs
   parallel vs parallel with a chaos worker kill, and the parallel maps
   really ran on the pool; a traced workers=2 sweep (which maps
   serially, as every observed map does) diffs clean against a traced
   workers=1 sweep, with an *informational* ``env:executor.workers``
   row that does not gate.

Exits non-zero with a diagnostic on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import replace

import numpy as np


def _fail(message: str) -> int:
    print(f"EXEC SMOKE FAILED: {message}")
    return 1


def _checksum_task(payload):
    """Seeded dense task: deterministic function of the payload only."""
    index, size = payload
    rng = np.random.default_rng(1000 + index)
    matrix = rng.standard_normal((size, size))
    return float(np.tanh(matrix @ matrix.T).sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.smoke",
        description="Deterministic parallel-execution and supervision check.",
    )
    parser.add_argument("--run-dir", default=os.path.join("results", "exec_smoke_run"))
    args = parser.parse_args(argv)

    import repro.experiments.config as config_module
    from ..experiments.config import SCALES
    from ..experiments.context import clear_context_cache
    from ..experiments.fault_sweep import run_fault_sweep
    from ..experiments.pipeline import clear_pipeline_cache
    from ..faults import ChaosSpec
    from ..obs import observe
    from ..obs.diff import diff_run_dirs
    from ..obs.registry import registration_enabled
    from . import ParallelExecutor, executor_scope, tree_reduce

    # ------------------------------------------------------------------
    # 1. fixed-order reduction + map determinism across worker counts
    # ------------------------------------------------------------------
    combined = tree_reduce(lambda a, b: f"({a}+{b})", list("abcde"))
    if combined != "(((a+b)+(c+d))+e)":
        return _fail(f"tree_reduce order drifted: {combined}")

    tasks = [(i, 12) for i in range(9)]
    serial = ParallelExecutor(workers=1).map(_checksum_task, tasks, label="smoke")
    if not serial.ok:
        return _fail(f"serial map reported failures: {serial.failures}")
    for workers in (2, 4):
        result = ParallelExecutor(workers=workers).map(
            _checksum_task, tasks, label="smoke"
        )
        if not result.ok:
            return _fail(f"workers={workers} map reported failures: {result.failures}")
        if result.results != serial.results:
            return _fail(f"workers={workers} results differ from serial")
    print(f"exec smoke: map bitwise-identical at workers 1/2/4 over {len(tasks)} tasks")

    # ------------------------------------------------------------------
    # 2. chaos worker kill -> retried, still identical
    # ------------------------------------------------------------------
    chaos = ParallelExecutor(workers=2, chaos=ChaosSpec.kill_task(3, attempts=1))
    chaotic = chaos.map(_checksum_task, tasks, label="smoke-chaos")
    if not chaotic.ok or chaotic.results != serial.results:
        return _fail("chaos-killed map did not recover to identical results")
    if chaotic.stats.crashes < 1 or chaotic.stats.retried < 1:
        return _fail(f"chaos kill not visible in stats: {chaotic.stats}")
    print(
        f"exec smoke: worker kill recovered ({chaotic.stats.crashes} crash, "
        f"{chaotic.stats.retried} retry), results identical"
    )

    # ------------------------------------------------------------------
    # 3. poison task -> quarantined, sweep completes as partial
    # ------------------------------------------------------------------
    poison = ParallelExecutor(
        workers=2,
        poison_threshold=2,
        max_retries=4,
        chaos=ChaosSpec.kill_task(5, attempts=5),
    )
    partial = poison.map(_checksum_task, tasks, label="smoke-poison")
    if partial.status != "partial":
        return _fail(f"poison task not quarantined: status={partial.status}")
    kinds = {f.index: f.kind for f in partial.failures.values()}
    if kinds != {5: "poison"}:
        return _fail(f"unexpected failure set: {kinds}")
    if any(
        value != expected
        for i, (value, expected) in enumerate(zip(partial.results, serial.results))
        if i != 5
    ):
        return _fail("non-poison results perturbed by quarantine")
    print("exec smoke: poison task quarantined, remaining 8/9 tasks identical")

    # ------------------------------------------------------------------
    # 4. unavailable start method -> graceful serial downgrade
    # ------------------------------------------------------------------
    downgraded = ParallelExecutor(workers=4, start_method="no-such-method")
    fallback = downgraded.map(_checksum_task, tasks, label="smoke-downgrade")
    if not fallback.stats.downgraded or fallback.stats.mode != "serial":
        return _fail(f"start-method downgrade not recorded: {fallback.stats}")
    if fallback.results != serial.results:
        return _fail("downgraded serial results differ")
    print("exec smoke: unavailable start method degraded to serial, identical results")

    # ------------------------------------------------------------------
    # 5. micro fault sweep: serial == parallel == chaos, traced diff clean
    # ------------------------------------------------------------------
    scale = replace(
        SCALES["tiny"],
        name="smoke",
        image_size=8,
        train_size=60,
        test_size=30,
        width_multiplier=0.125,
        batch_size=30,
        dnn_epochs=2,
        snn_epochs=1,
        calibration_batches=1,
    )
    config_module.SCALES = {**config_module.SCALES, "smoke": scale}
    sweep_kwargs = dict(
        arch="vgg11",
        dataset="cifar10",
        scale_name="smoke",
        timesteps=2,
        fault_kinds=["prune"],
        ladders={"prune": (0.0, 0.2)},
        seed=0,
    )

    class _StatsExecutor(ParallelExecutor):
        """Keeps the last map's stats, which run_fault_sweep drops."""

        def map(self, *args, **kwargs):
            outcome = super().map(*args, **kwargs)
            self.last_stats = outcome.stats
            return outcome

    # Unobserved, so the workers=2 sweeps run on the pool.
    serial_sweep = run_fault_sweep(**sweep_kwargs)
    pool = _StatsExecutor(workers=2)
    chaos_pool = _StatsExecutor(workers=2, chaos=ChaosSpec.kill_task(1, attempts=1))
    parallel_sweep = run_fault_sweep(**sweep_kwargs, executor=pool)
    chaos_sweep = run_fault_sweep(**sweep_kwargs, executor=chaos_pool)
    if pool.last_stats.mode != "parallel" or chaos_pool.last_stats.mode != "parallel":
        return _fail("unobserved workers=2 fault sweep did not run on the pool")
    if chaos_pool.last_stats.crashes < 1:
        return _fail(f"chaos kill not visible in stats: {chaos_pool.last_stats}")
    blobs = [json.dumps(s, sort_keys=True)
             for s in (serial_sweep, parallel_sweep, chaos_sweep)]
    if len(set(blobs)) != 1:
        return _fail("fault sweep payloads differ across serial/parallel/chaos")
    print("exec smoke: fault sweep bitwise-identical serial vs parallel vs chaos")

    def _traced_sweep(run_dir, executor):
        clear_context_cache()
        clear_pipeline_cache()
        for name in ("trace.jsonl", "events.jsonl", "metrics.json",
                     "drift.jsonl", "faults.jsonl", "alerts.jsonl"):
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                os.remove(path)
        # Ambient scope (the CLI's wiring): the run registry fingerprint
        # records the executor config for obs diff's informational rows.
        with executor_scope(executor):
            with observe(run_dir, smoke=True, arch="vgg11", timesteps=2, seed=0):
                return run_fault_sweep(**sweep_kwargs)

    traced = [
        _traced_sweep(args.run_dir, None),
        _traced_sweep(f"{args.run_dir}_b", ParallelExecutor(workers=2)),
    ]
    if any(json.dumps(s, sort_keys=True) != blobs[0] for s in traced):
        return _fail("traced fault sweep payloads differ from the unobserved one")
    cross = diff_run_dirs(args.run_dir, f"{args.run_dir}_b")
    if not cross.ok:
        print(cross.render())
        return _fail("cross-worker-count diff gated instead of informational")
    env_rows = [d for d in cross.deltas if d.name.startswith("env:executor")]
    if registration_enabled() and not env_rows:
        return _fail("cross-worker-count diff carried no env:executor row")
    if any(d.significant or d.regressed for d in env_rows):
        return _fail("env:executor rows must stay informational")
    print(
        f"exec smoke: traced workers 1 vs 2 diff clean, with "
        f"{len(env_rows)} informational env:executor row(s)"
    )

    print("EXEC SMOKE PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
