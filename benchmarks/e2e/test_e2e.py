"""Checks of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q      (~3 min)
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
from hostclock import REFERENCE_S, HostClock  # noqa: E402
from tracing import NULL_TRACER, Span, Tracer, instrument, self_times  # noqa: E402
from workloads import (  # noqa: E402
    PIPELINE_SCALE,
    POOL_IMAGES,
    SCALE,
    composed_pipeline,
    pipeline_inputs,
)

from repro.data import synth_cifar10  # noqa: E402
from repro.experiments.config import SCALES, ExperimentConfig  # noqa: E402
from repro.experiments.context import clear_context_cache  # noqa: E402
from repro.experiments.pipeline import clear_pipeline_cache, run_pipeline  # noqa: E402
from repro.models import VGG  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_context_cache()
    clear_pipeline_cache()
    yield
    clear_context_cache()
    clear_pipeline_cache()


def _accuracies(result):
    return (result.dnn_accuracy, result.conversion_accuracy, result.snn_accuracy)


def test_composed_pipeline_matches_run_pipeline_at_tiny_preset():
    tiny = SCALES["tiny"]
    expected = run_pipeline(ExperimentConfig("vgg16", "cifar10", 2, tiny, seed=0))
    inputs = pipeline_inputs("vgg16", 2, tiny, 0, NULL_TRACER)
    composed = composed_pipeline(inputs, NULL_TRACER)
    assert composed["accuracies"] == _accuracies(expected)


def test_traced_and_untraced_outputs_are_identical():
    inputs = pipeline_inputs("vgg16", 2, PIPELINE_SCALE, 3, NULL_TRACER)
    untraced = composed_pipeline(inputs, NULL_TRACER)
    original_forward = VGG.__dict__["forward"]
    tracer = Tracer()
    tracer.run = 0
    with instrument(tracer), tracer.span("pass"):
        traced = composed_pipeline(inputs, tracer)
    assert traced["accuracies"] == untraced["accuracies"]
    assert [s.alpha for s in traced["conversion"].specs] == [
        s.alpha for s in untraced["conversion"].specs
    ]
    assert VGG.__dict__["forward"] is original_forward
    names = {span.name for span in tracer.spans}
    assert {"nn.train_forward", "snn.train_forward", "tensor.backward",
            "optim.step", "data.wait", "conversion.proposed"} <= names
    assert tracer.samples["train.dnn_step_s"] and tracer.samples["train.sgl_step_s"]


def test_benchmark_json_names_are_valid():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])) == len(
        SPEC["end_to_end"] + SPEC["per_layer"]
    )
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_declared_metric(tmp_path, trace, section):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "pipeline_t2",
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    if trace:
        assert (tmp_path / "pipeline_t2" / "trace.json").exists()
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.95
        assert 0.0 <= result["metrics"]["trace.overhead_frac"]["value"] <= 0.05


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "infer_t3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_seeds_change_inputs():
    first = pipeline_inputs("vgg16", 2, PIPELINE_SCALE, 0, NULL_TRACER)
    second = pipeline_inputs("vgg16", 2, PIPELINE_SCALE, 1, NULL_TRACER)
    assert not np.array_equal(first.dataset.train_images, second.dataset.train_images)
    first_weights = [p.data for p in first.model.parameters()]
    second_weights = [p.data for p in second.model.parameters()]
    assert not all(np.array_equal(a, b) for a, b in zip(first_weights, second_weights))
    pools = [
        synth_cifar10(SCALE.image_size, SCALE.train_size, POOL_IMAGES, seed=seed).test_images
        for seed in (0, 1)
    ]
    assert not np.array_equal(*pools)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, "root", None, 0, 0.0, 10.0),
        Span(1, "a", 0, 0, 1.0, 4.0),
        Span(2, "b", 0, 0, 3.0, 6.0),   # overlaps a: [1, 6] is covered once
        Span(3, "a.child", 1, 0, 2.0, 3.0),
        Span(4, "late", 0, 0, 9.0, 12.0),  # only [9, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_host_clock_runs_at_the_reference_speed():
    # A reference kernel taking half of REFERENCE_S is a host twice as
    # fast, so the clock must run at twice the wall clock's rate.
    before = signal.getsignal(signal.SIGALRM)
    with HostClock(tick_s=0.005, probe=lambda: REFERENCE_S / 2) as clock:
        wall, host = time.perf_counter(), clock.now()
        while time.perf_counter() - wall < 0.2:
            pass
        wall, host = time.perf_counter() - wall, clock.now() - host
    assert clock.ticks >= 10
    assert host == pytest.approx(2 * wall, rel=0.02)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def _record(workload, seed, value, metric="request_s", commit="c1"):
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "fingerprint": {"cpu_count": 2, "cpus_usable": 2, "blas_threads": {},
                        "python": "3", "numpy": "2", "commit": commit, "dirty": False},
        "metrics": {metric: {"value": value, "unit": "s"}},
    }


def test_compare_verdicts():
    base = [_record("w", seed, 10.0 + 0.01 * seed) for seed in range(10)]

    def verdict_for(values, bound=0.1):
        cand = [_record("w", seed, v) for seed, v in enumerate(values)]
        base_by_seed = compare.series(base, "w", "request_s")
        cand_by_seed = compare.series(cand, "w", "request_s")
        wins = compare.pair_win_share(base_by_seed, cand_by_seed, "lower")
        return compare.verdict(compare.flatten(base_by_seed), compare.flatten(cand_by_seed),
                               "lower", bound, wins)

    assert verdict_for([12.0 + 0.01 * s for s in range(10)]) == "worse"
    assert verdict_for([9.0 + 0.01 * s for s in range(10)]) == "better"
    assert verdict_for([10.05 + 0.01 * s for s in range(10)]) == "within bound"
    assert verdict_for([5.0, 15.0] * 5) == "unresolved"
    assert compare.fingerprint_problems([base, [_record("w", 0, 1.0, commit="c2")]]) == []
    assert compare.fingerprint_problems([base + [_record("w", 0, 1.0, commit="c2")]])


def test_table1_rows_at_bench_preset():
    """Seed 0 reproduces the Table I rows recorded in EXPERIMENTS.md."""
    bench = SCALES["bench"]
    composed = composed_pipeline(pipeline_inputs("vgg16", 2, bench, 0, NULL_TRACER), NULL_TRACER)
    assert [round(100 * a, 1) for a in composed["accuracies"]] == [80.0, 40.0, 48.0]
    served = run_pipeline(ExperimentConfig("vgg11", "cifar10", 3, bench, seed=0))
    assert [round(100 * a, 1) for a in _accuracies(served)] == [100.0, 92.7, 99.3]
