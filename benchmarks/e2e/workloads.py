"""The four workloads of the end-to-end benchmark.

Each workload drives the paper's pipeline through the public functions
of each layer and opens a span around every call it makes into one:

- ``pipeline_t2``: VGG-16 trained, converted at T=2 by Algorithm 1 and
  fine-tuned with SGL, call for call as ``get_context`` + ``run_pipeline``
  do it (Table I row, Fig. 3 SGL epoch);
- ``infer_t3``: 16-image requests through a converted, fine-tuned VGG-11
  at T=3 with sparse dispatch on (the forward-only side of ``repro.snn``);
- ``convert_sweep``: ``convert_dnn_to_snn`` + ``evaluate_snn`` for each
  conversion strategy at T=2 and T=3 on ResNet-20 (Fig. 2 sweep at the
  paper's latencies, residual topology);
- ``fault_sweep``: ``run_fault_sweep`` over ``min(2, cpus)`` workers
  (the only workload where ``repro.exec`` and ``repro.faults`` work).

A workload has ``setup(seed, tracer)`` (timed as ``setup_s``),
``run_pass(state, index, tracer)`` (one client request, timed as
``request_s``), ``finish(state, passes, tracer)`` (output checks and
workload-specific per-layer metrics) and ``cycle``, the number of
consecutive requests that make one unit of work.  A run measures whole
units, so every run times the same mix of requests.  Everything a workload consumes is
generated from the seed it is given.
"""

from __future__ import annotations

import gc
import os
import time
from copy import deepcopy
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.conversion import (
    ConversionConfig,
    collect_activation_stats,
    convert_dnn_to_snn,
    find_scaling_factors,
)
from repro.data import DataLoader, Normalize, synth_cifar10
from repro.experiments.config import SCALES, ExperimentConfig, ScalePreset
from repro.experiments.context import clear_context_cache, get_context
from repro.experiments.fault_sweep import run_fault_sweep
from repro.experiments.pipeline import clear_pipeline_cache, run_pipeline
from repro.models import build_model
from repro.tensor import no_grad
from repro.train import (
    DNNTrainConfig,
    DNNTrainer,
    SNNTrainConfig,
    SNNTrainer,
    evaluate_dnn,
    evaluate_snn,
)
from repro.train.lsuv import lsuv_init, scale_residual_branches
from tracing import NULL_TRACER

ROOT = Path(__file__).resolve().parents[2]

# The tiny preset's geometry with fewer images and epochs: three
# set-ups plus a measured phase of every workload must fit the run
# budget, and the tiny preset's own VGG-11 pipeline already takes ~4 s.
SCALE = replace(
    SCALES["tiny"],
    name="e2e",
    train_size=160,
    test_size=40,
    dnn_epochs=3,
    snn_epochs=1,
    calibration_batches=1,
)
# pipeline_t2 trains more, so training and BPTT carry a larger share of
# its requests than Algorithm 1, whose cost does not shrink with the data.
PIPELINE_SCALE = replace(SCALE, name="e2e_pipeline", dnn_epochs=4, snn_epochs=2)

# Learning rates run_pipeline uses for these (arch, dataset) pairs.
DNN_LR = {"vgg16": 0.015, "vgg11": 0.015, "resnet20": 0.03}
SNN_LR = 5e-4

REQUEST_IMAGES = 16
POOL_IMAGES = 2000
WARMUP_REQUESTS = 20
STRATEGIES = ("proposed", "threshold_relu", "deng_shift")
# The paper's two latencies only: Algorithm 1 costs the same at every T,
# and one ResNet-20 search takes ~3.5 s.
SWEEP_TIMESTEPS = (2, 3)


@dataclass
class PassResult:
    """One client request.

    ``output`` must repeat exactly on every pass with the same ``key``
    (traced or not); ``attempted``/``failed`` count the operations in it.
    """

    output: Any
    attempted: int
    failed: int = 0
    key: Any = None
    keep: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Pass:
    result: PassResult
    wall: float
    host: float  # on the host clock (hostclock.HostClock)
    cpu: float
    traced: bool


class EpochClock:
    """``on_epoch_end`` callback recording each epoch's wall time."""

    def __init__(self) -> None:
        self.epochs: List[float] = []
        self._last = time.perf_counter()

    def __call__(self, epoch, history) -> None:
        now = time.perf_counter()
        self.epochs.append(now - self._last)
        self._last = now


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
@dataclass
class PipelineInputs:
    seed: int
    arch: str
    timesteps: int
    scale: ScalePreset
    dataset: Any
    normalize: Normalize
    model: Any


def pipeline_inputs(
    arch: str, timesteps: int, scale: ScalePreset, seed: int, tracer
) -> PipelineInputs:
    """Dataset and LSUV-initialised model, built as ``get_context``
    builds them."""
    dataset = synth_cifar10(
        image_size=scale.image_size,
        train_size=scale.train_size,
        test_size=scale.test_size,
        seed=seed,
    )
    kwargs = dict(
        num_classes=10,
        width_multiplier=scale.width_multiplier,
        activation="threshold_relu",
        dropout=scale.dropout,
        rng=np.random.default_rng(seed + 100),
    )
    if arch.startswith("vgg"):
        kwargs["image_size"] = scale.image_size
    normalize = Normalize(*dataset.channel_stats())
    model = build_model(arch, **kwargs)
    train_images = dataset.train_images
    calibration = normalize(
        train_images[: min(100, len(train_images))], np.random.default_rng(seed)
    )
    with tracer.span("train.lsuv"):
        lsuv_init(model, calibration)
        scale_residual_branches(model)
    return PipelineInputs(seed, arch, timesteps, scale, dataset, normalize, model)


def composed_pipeline(inputs: PipelineInputs, tracer) -> Dict[str, Any]:
    """The rest of ``get_context`` + ``run_pipeline`` (proposed strategy,
    SGL on) after LSUV, call for call with the same seeds and arguments,
    on a copy of the initialised model."""
    seed, scale = inputs.seed, inputs.scale
    dataset, normalize = inputs.dataset, inputs.normalize
    model = deepcopy(inputs.model)
    train_images, train_labels = dataset.train_images, dataset.train_labels

    def test_loader():
        return DataLoader(
            dataset.test_images, dataset.test_labels,
            batch_size=scale.batch_size, transform=normalize,
        )

    train_loader = DataLoader(
        train_images, train_labels, batch_size=scale.batch_size,
        shuffle=True, transform=normalize, seed=seed + 1,
    )
    dnn_loader = test_loader()
    dnn_clock = EpochClock()
    with tracer.span("train.dnn_fit"):
        DNNTrainer(
            DNNTrainConfig(epochs=scale.dnn_epochs, lr=DNN_LR[inputs.arch])
        ).fit(model, train_loader, dnn_loader, on_epoch_end=dnn_clock)
    with tracer.span("train.eval"):
        dnn_accuracy = evaluate_dnn(model, dnn_loader)

    conversion_config = ConversionConfig(
        timesteps=inputs.timesteps,
        strategy="proposed",
        calibration_batches=scale.calibration_batches,
    )

    def calibration_loader():
        return DataLoader(
            train_images, train_labels, batch_size=scale.batch_size, transform=normalize
        )

    with tracer.span("conversion.proposed"):
        conversion = convert_dnn_to_snn(model, calibration_loader(), conversion_config)
    snn_loader = test_loader()
    with tracer.span("train.eval"):
        conversion_accuracy = evaluate_snn(conversion.snn, snn_loader)
    sgl_clock = EpochClock()
    with tracer.span("train.sgl_fit"):
        SNNTrainer(SNNTrainConfig(epochs=scale.snn_epochs, lr=SNN_LR)).fit(
            conversion.snn,
            DataLoader(
                train_images, train_labels, batch_size=scale.batch_size,
                shuffle=True, transform=normalize, seed=seed + 2,
            ),
            snn_loader,
            on_epoch_end=sgl_clock,
        )
    with tracer.span("train.eval"):
        snn_accuracy = evaluate_snn(conversion.snn, snn_loader)
    return {
        "accuracies": (dnn_accuracy, conversion_accuracy, snn_accuracy),
        "model": model,
        "calibration_loader": calibration_loader,
        "conversion": conversion,
        "dnn_epochs": dnn_clock.epochs,
        "sgl_epochs": sgl_clock.epochs,
    }


def replay_conversion(model, calibration_loader, conversion) -> Tuple[Dict[str, float], List[str]]:
    """Re-run calibration and Algorithm 1 on a conversion's own inputs.

    Times the two stages the converter runs inside one call and checks
    that they reproduce the conversion's statistics and specs exactly.
    """
    config = conversion.config
    started = time.perf_counter()
    stats = collect_activation_stats(
        model,
        calibration_loader(),
        max_batches=config.calibration_batches,
        max_samples_per_layer=config.max_samples_per_layer,
    )
    calibrated = time.perf_counter()
    factors = [find_scaling_factors(s.percentiles, s.mu, config.timesteps) for s in stats]
    searched = time.perf_counter()
    errors = []
    for index, (replayed, original) in enumerate(zip(stats, conversion.stats)):
        if not np.array_equal(replayed.percentiles, original.percentiles):
            errors.append(f"replayed calibration differs at layer {index}")
    for index, (found, spec) in enumerate(zip(factors, conversion.specs)):
        if (found.alpha, found.beta) != (spec.alpha, spec.beta):
            errors.append(
                f"replayed Algorithm 1 gives (alpha, beta)=({found.alpha}, "
                f"{found.beta}) at layer {index}, conversion has "
                f"({spec.alpha}, {spec.beta})"
            )
    if len(factors) != len(conversion.specs):
        errors.append("replayed Algorithm 1 found a different number of layers")
    metrics = {
        "conversion.calibrate_s": calibrated - started,
        "conversion.algorithm1_s": searched - calibrated,
        "conversion.algorithm1_evaluations": float(sum(f.evaluations for f in factors)),
    }
    return metrics, errors


def _first_traced(passes: List[Pass]) -> Optional[PassResult]:
    return next((p.result for p in passes if p.traced), None)


def _fresh_caches() -> None:
    # get_context / run_pipeline cache per process; every set-up must do
    # the full work, and the previous set-up's models must be freed
    # before it starts so peak memory is that of one set-up.
    clear_context_cache()
    clear_pipeline_cache()
    gc.collect()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class PipelineT2:
    name = "pipeline_t2"
    arch = "vgg16"
    timesteps = 2
    cycle = 1
    stages = 6  # DNN fit, eval, convert, eval, SGL fit, eval

    def setup(self, seed: int, tracer) -> PipelineInputs:
        return pipeline_inputs(self.arch, self.timesteps, PIPELINE_SCALE, seed, tracer)

    def run_pass(self, inputs: PipelineInputs, index: int, tracer) -> PassResult:
        out = composed_pipeline(inputs, tracer)
        if tracer is NULL_TRACER:
            # Only traced requests are replayed; keeping every request's
            # networks alive would inflate peak memory.
            for key in ("model", "calibration_loader", "conversion"):
                del out[key]
        return PassResult(out["accuracies"], self.stages, keep=out)

    def finish(self, inputs, passes: List[Pass], tracer):
        metrics: Dict[str, float] = {}
        errors: List[str] = []
        dnn, conv, snn = passes[0].result.output
        metrics.update({
            "accuracy.dnn": 100.0 * dnn,
            "accuracy.converted": 100.0 * conv,
            "accuracy.snn": 100.0 * snn,
        })
        first = _first_traced(passes)
        if first is not None:
            keep = first.keep
            replayed, errors = replay_conversion(
                keep["model"], keep["calibration_loader"], keep["conversion"]
            )
            metrics.update(replayed)
            traced = [p.result.keep for p in passes if p.traced]
            metrics["train.dnn_epoch_s"] = median(e for k in traced for e in k["dnn_epochs"])
            metrics["train.sgl_epoch_s"] = median(e for k in traced for e in k["sgl_epochs"])
        return metrics, errors


class InferT3:
    name = "infer_t3"
    arch = "vgg11"
    timesteps = 3
    cycle = 1

    def setup(self, seed: int, tracer) -> Dict[str, Any]:
        _fresh_caches()
        config = ExperimentConfig(
            arch=self.arch, dataset="cifar10", timesteps=self.timesteps,
            scale=SCALE, seed=seed,
        )
        with tracer.span("experiments.run_pipeline"):
            pipeline = run_pipeline(config)
        # Same dataset seed and train_size as the trained model: another
        # seed draws other class prototypes, which the model never saw.
        pool = synth_cifar10(
            image_size=SCALE.image_size,
            train_size=SCALE.train_size,
            test_size=POOL_IMAGES,
            seed=seed,
        )
        images = pipeline.context.normalize(pool.test_images)
        requests = [
            (images[start : start + REQUEST_IMAGES], pool.test_labels[start : start + REQUEST_IMAGES])
            for start in range(0, POOL_IMAGES, REQUEST_IMAGES)
        ]
        snn = pipeline.snn
        snn.eval()
        dispatch = snn.enable_sparse_dispatch(str(ROOT / "CROSSOVER.json"))
        with no_grad():
            warmup = [snn(x).data for x, _ in requests[:WARMUP_REQUESTS]]
        dispatch.reset_stats()
        return {
            "pipeline": pipeline, "requests": requests, "snn": snn,
            "dispatch": dispatch, "warmup": warmup,
        }

    def run_pass(self, state, index: int, tracer) -> PassResult:
        slot = index % len(state["requests"])
        images, labels = state["requests"][slot]
        with no_grad():
            logits = state["snn"](images)
        predictions = logits.data.argmax(axis=1)
        correct = int((predictions == labels).sum())
        return PassResult(predictions.tobytes(), 1, key=slot, keep={"correct": correct})

    def finish(self, state, passes: List[Pass], tracer):
        pipeline, snn, dispatch = state["pipeline"], state["snn"], state["dispatch"]
        served = REQUEST_IMAGES * len(passes)
        correct = sum(p.result.keep["correct"] for p in passes)
        layers = dispatch.layer_stats()
        sparse = sum(s.sparse_runs for s in layers)
        dense = sum(s.dense_runs for s in layers)
        calls = sparse + dense
        metrics = {
            "accuracy.dnn": 100.0 * pipeline.dnn_accuracy,
            "accuracy.converted": 100.0 * pipeline.conversion_accuracy,
            "accuracy.snn": 100.0 * (correct / served),
            "snn.sparse_fraction": sparse / calls if calls else 0.0,
            "snn.sparse_runs": sparse / len(passes),
            "snn.dense_runs": dense / len(passes),
            "snn.mean_density": (
                sum(s.density_sum for s in layers) / calls if calls else 0.0
            ),
        }
        errors = []
        snn.disable_sparse_dispatch()
        with no_grad():
            for index, ((images, _), routed) in enumerate(zip(state["requests"], state["warmup"])):
                reference = snn(images).data
                if not np.allclose(routed, reference, rtol=1e-6, atol=1e-9):
                    errors.append(f"dispatch-routed logits differ from dense on request {index}")
                if not np.array_equal(routed.argmax(axis=1), reference.argmax(axis=1)):
                    errors.append(f"dispatch-routed predictions differ from dense on request {index}")
        return metrics, errors


class ConvertSweep:
    name = "convert_sweep"
    arch = "resnet20"
    # The network is trained from one fixed seed and the run's seed draws
    # the images it is calibrated and evaluated on.  Algorithm 1's cost
    # follows the trained thresholds, and varies ~8% between training
    # seeds but ~1% between calibration sets of one network.
    model_seed = 0
    pool_images = 400
    cycle = len(SWEEP_TIMESTEPS)

    def setup(self, seed: int, tracer) -> Dict[str, Any]:
        _fresh_caches()
        config = ExperimentConfig(
            arch=self.arch, dataset="cifar10", timesteps=2, scale=SCALE,
            seed=self.model_seed,
        )
        with tracer.span("experiments.get_context"):
            context = get_context(config)
        # Held-out images of the classes the network was trained on.
        pool = synth_cifar10(
            image_size=SCALE.image_size,
            train_size=SCALE.train_size,
            test_size=self.pool_images,
            seed=self.model_seed,
        )
        calibration = SCALE.calibration_batches * SCALE.batch_size
        pick = np.random.default_rng(seed).permutation(self.pool_images)
        chosen = {
            "calibration": pick[:calibration],
            "evaluation": pick[calibration : calibration + SCALE.test_size],
        }
        images = {
            key: (pool.test_images[index], pool.test_labels[index])
            for key, index in chosen.items()
        }
        return {"context": context, "images": images}

    @staticmethod
    def loader(state, key: str) -> DataLoader:
        images, labels = state["images"][key]
        return DataLoader(
            images, labels, batch_size=SCALE.batch_size,
            transform=state["context"].normalize,
        )

    def run_pass(self, state, index: int, tracer) -> PassResult:
        """One column of the sweep: every strategy at one T, the T
        cycling between requests."""
        model = state["context"].model
        timesteps = SWEEP_TIMESTEPS[index % self.cycle]
        accuracies = []
        for strategy in STRATEGIES:
            config = ConversionConfig(
                timesteps=timesteps,
                strategy=strategy,
                calibration_batches=SCALE.calibration_batches,
            )
            span = "conversion.proposed" if strategy == "proposed" else "conversion.baseline"
            with tracer.span(span):
                result = convert_dnn_to_snn(model, self.loader(state, "calibration"), config)
            with tracer.span("train.eval"):
                accuracies.append(evaluate_snn(result.snn, self.loader(state, "evaluation")))
            if strategy == "proposed":
                proposed = result
        keep = {} if tracer is NULL_TRACER else {"proposed": proposed}
        return PassResult(tuple(accuracies), len(STRATEGIES), key=timesteps, keep=keep)

    def finish(self, state, passes: List[Pass], tracer):
        context = state["context"]
        metrics = {
            "accuracy.dnn": 100.0 * context.dnn_accuracy,
            "accuracy.converted": 100.0 * passes[0].result.output[0],
        }
        errors: List[str] = []
        first = _first_traced(passes)
        if first is not None:
            replayed, errors = replay_conversion(
                context.model, lambda: self.loader(state, "calibration"),
                first.keep["proposed"],
            )
            metrics.update(replayed)
        return metrics, errors


class FaultSweep:
    name = "fault_sweep"
    arch = "vgg11"
    timesteps = 2
    cycle = 1

    def _sweep(self, seed: int, workers: int) -> Dict[str, Any]:
        return run_fault_sweep(
            self.arch, "cifar10", SCALE.name, self.timesteps, seed=seed, workers=workers
        )

    def setup(self, seed: int, tracer) -> Dict[str, Any]:
        # run_fault_sweep looks its preset up by name.
        SCALES.setdefault(SCALE.name, SCALE)
        _fresh_caches()
        config = ExperimentConfig(
            arch=self.arch, dataset="cifar10", timesteps=self.timesteps,
            scale=SCALE, seed=seed,
        )
        with tracer.span("experiments.run_pipeline"):
            pipeline = run_pipeline(config)
        workers = min(2, len(os.sched_getaffinity(0)))
        return {"seed": seed, "pipeline": pipeline, "workers": workers}

    def run_pass(self, state, index: int, tracer) -> PassResult:
        with tracer.span("faults.sweep"):
            sweep = self._sweep(state["seed"], state["workers"])
        cells = [
            value
            for curve in sweep["curves"]
            for model in ("dnn", "converted", "finetuned")
            for value in (curve[model] or [])
        ]
        output = (sweep["status"], repr(sweep["curves"]))
        return PassResult(
            output, len(cells), failed=len(sweep["failures"]),
            keep={"sweep": sweep, "cells": cells},
        )

    def finish(self, state, passes: List[Pass], tracer):
        sweep = passes[0].result.keep["sweep"]
        cells = passes[0].result.keep["cells"]
        scored = [value for value in cells if value is not None]
        metrics = {
            "faults.cells": float(len(cells)),
            "faults.failed_cells": float(len(cells) - len(scored)),
            "accuracy.dnn": 100.0 * state["pipeline"].dnn_accuracy,
            "accuracy.converted": 100.0 * state["pipeline"].conversion_accuracy,
            "accuracy.snn": sum(scored) / len(scored) if scored else 0.0,
        }
        errors = []
        if sweep["status"] != "ok" or sweep["failures"]:
            errors.append(f"fault sweep finished {sweep['status']}: {sweep['failures']}")
        if tracer is not None:
            started = time.perf_counter()
            serial = self._sweep(state["seed"], 1)
            serial_s = time.perf_counter() - started
            parallel_s = median(p.wall for p in passes if not p.traced)
            metrics.update({
                "exec.serial_sweep_s": serial_s,
                "exec.parallel_sweep_s": parallel_s,
                "exec.speedup": serial_s / parallel_s,
            })
            if serial["curves"] != sweep["curves"] or serial["status"] != "ok":
                errors.append("serial fault sweep differs from the parallel sweep")
        return metrics, errors


WORKLOADS = {w.name: w for w in (PipelineT2(), InferT3(), ConvertSweep(), FaultSweep())}
