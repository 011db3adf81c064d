"""Fig. 3: simulation time per epoch and memory vs SNN latency.

Compares the proposed 2- and 3-step hybrid training against the 5-step
direct-encoded baseline (Rathi et al. [7]) on:

(a) training and inference wall-clock time per epoch — both replay the
    layer pipeline once per step, so time grows ~linearly with T; the
    paper measures 2.38x (training) / 2.33x (inference) speedups at
    T=2 vs T=5;
(b) memory — the tracemalloc peak that the timed training pass (forward,
    BPTT backward) and eval pass allocate, read on a separate call because
    tracing slows allocation (:func:`~repro.profiling.traced_peak_bytes`).
    Training memory grows with T (paper: 1.44x lower at T=2).  The paper's
    inference memory is nearly constant in T; the time-folded engine holds
    all T steps of a layer at once, so here it grows with T too.

All approaches are timed under iso-batch conditions on the same model.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..nn import CrossEntropyLoss
from ..profiling import time_callable, traced_peak_bytes
from ..tensor import no_grad
from .config import ExperimentConfig, get_scale
from .context import get_context
from .pipeline import convert_only
from .reporting import format_table

_MB = 1024.0 * 1024.0


def _one_training_pass(snn, images, labels, criterion) -> None:
    snn.train()
    logits = snn(images)
    loss = criterion(logits, labels)
    loss.backward()
    snn.zero_grad()


def _one_inference_pass(snn, images) -> None:
    snn.eval()
    with no_grad():
        snn(images)


def run_fig3(
    dataset: str = "cifar10",
    scale_name: str = "bench",
    timesteps: Sequence[int] = (2, 3, 5),
    seed: int = 0,
    repeats: int = 2,
) -> Dict:
    """Time and memory for each latency under iso-batch conditions."""
    scale = get_scale(scale_name)
    base = ExperimentConfig(
        arch="vgg16", dataset=dataset, timesteps=2, scale=scale, seed=seed
    )
    context = get_context(base)
    images, labels = next(iter(context.train_loader(shuffle=False)))
    criterion = CrossEntropyLoss()
    batches_per_epoch = max(1, scale.train_size // scale.batch_size)

    rows: List[dict] = []
    for t in timesteps:
        conversion = convert_only(base.with_timesteps(t), context=context)
        snn = conversion.snn
        train_time = time_callable(
            lambda: _one_training_pass(snn, images, labels, criterion),
            repeats=repeats,
        )
        infer_time = time_callable(
            lambda: _one_inference_pass(snn, images), repeats=repeats
        )
        train_bytes = traced_peak_bytes(
            lambda: _one_training_pass(snn, images, labels, criterion)
        )
        infer_bytes = traced_peak_bytes(lambda: _one_inference_pass(snn, images))
        rows.append(
            {
                "timesteps": t,
                "train_seconds_per_epoch": train_time.mean * batches_per_epoch,
                "inference_seconds_per_epoch": infer_time.mean * batches_per_epoch,
                "train_memory_mb": train_bytes / _MB,
                "inference_memory_mb": infer_bytes / _MB,
            }
        )

    baseline = rows[-1]  # largest T (the 5-step hybrid baseline)
    for row in rows:
        row["train_speedup_vs_5step"] = (
            baseline["train_seconds_per_epoch"] / row["train_seconds_per_epoch"]
        )
        row["inference_speedup_vs_5step"] = (
            baseline["inference_seconds_per_epoch"]
            / row["inference_seconds_per_epoch"]
        )
        row["memory_reduction_vs_5step"] = (
            baseline["train_memory_mb"] / row["train_memory_mb"]
        )
    return {"dataset": dataset, "rows": rows}


def render_fig3(result: Dict) -> str:
    headers = [
        "T",
        "train s/epoch",
        "infer s/epoch",
        "train mem MB",
        "infer mem MB",
        "train speedup",
        "mem reduction",
    ]
    rows = [
        [
            r["timesteps"],
            r["train_seconds_per_epoch"],
            r["inference_seconds_per_epoch"],
            r["train_memory_mb"],
            r["inference_memory_mb"],
            r["train_speedup_vs_5step"],
            r["memory_reduction_vs_5step"],
        ]
        for r in result["rows"]
    ]
    return format_table(
        headers,
        rows,
        title=f"Fig. 3 — time & memory vs T (VGG-16, {result['dataset']})",
    )
