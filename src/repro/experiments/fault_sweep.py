"""Fault-tolerance sweep: accuracy vs fault severity, model by model.

For each fault kind in the :mod:`repro.faults` vocabulary this driver
evaluates three models under increasing fault severity:

- the trained source **DNN** (weight faults only — it has no spiking
  neurons or spike traffic to perturb);
- the **converted** SNN, straight out of Algorithm 1;
- the **fine-tuned** SNN after surrogate-gradient learning.

The interesting question for the paper's deployment story is whether
SGL fine-tuning buys back any hardware-fault tolerance on top of the
accuracy it recovers — the sweep renders one degradation curve per
fault kind, with severity level 0 always the clean baseline.

Everything is seeded: the same ``seed`` reproduces the same fault
realisations (per :class:`repro.faults.FaultInjector`'s per-layer RNG
streams), so two identical sweep invocations return identical curves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import FaultSpec
from ..train import evaluate_dnn, evaluate_snn
from .config import ExperimentConfig, get_scale
from .pipeline import convert_only, run_pipeline
from .reporting import format_table

# Severity ladders per fault kind.  The first level is always the
# clean baseline (null spec).  Quantisation severities are bit widths
# (None = full precision); everything else is a rate/sigma.
DEFAULT_LADDERS: Dict[str, Sequence] = {
    "quantization": (None, 8, 6, 4, 3, 2),
    "prune": (0.0, 0.05, 0.1, 0.2, 0.4),
    "stuck_zero": (0.0, 0.05, 0.1, 0.2, 0.4),
    "sign_flip": (0.0, 0.01, 0.02, 0.05, 0.1),
    "dead_neurons": (0.0, 0.05, 0.1, 0.2, 0.4),
    "threshold_jitter": (0.0, 0.05, 0.1, 0.2, 0.4),
    "leak_drift": (0.0, 0.05, 0.1, 0.2, 0.4),
    "spike_drop": (0.0, 0.02, 0.05, 0.1, 0.2),
    "frame_drop": (0.0, 0.1, 0.2, 0.4),
}

# Fault kinds a plain (non-spiking) DNN can experience.
WEIGHT_KINDS = ("quantization", "prune", "stuck_zero", "sign_flip")

# The swept models, in task order; the DNN only meets WEIGHT_KINDS.
_MODEL_KEYS = ("dnn", "converted", "finetuned")

_SPEC_BUILDERS = {
    "quantization": FaultSpec.quantization,
    "prune": FaultSpec.pruning,
    "stuck_zero": FaultSpec.stuck_zero,
    "sign_flip": FaultSpec.sign_flip,
    "dead_neurons": FaultSpec.dead_neurons,
    "threshold_jitter": FaultSpec.threshold_jitter,
    "leak_drift": FaultSpec.leak_drift,
    "spike_drop": FaultSpec.spike_drop,
    "frame_drop": FaultSpec.frame_drop,
}


def build_fault_spec(kind: str, level, seed: int = 0) -> FaultSpec:
    """One-knob :class:`FaultSpec` for ``kind`` at severity ``level``.

    ``level`` of ``None`` (quantisation) or ``0.0`` (rates) yields the
    null spec — the sweep's clean baseline.
    """
    if kind not in _SPEC_BUILDERS:
        raise KeyError(
            f"unknown fault kind '{kind}'; available: {sorted(_SPEC_BUILDERS)}"
        )
    if level is None or level == 0.0:
        return FaultSpec(seed=seed)
    return _SPEC_BUILDERS[kind](level, seed=seed)


def _faulted_accuracy(model_key: str, model, loader_factory, spec: FaultSpec) -> float:
    from ..faults import inject_faults

    evaluate = evaluate_dnn if model_key == "dnn" else evaluate_snn
    if spec.is_null:
        return evaluate(model, loader_factory) * 100.0
    with inject_faults(model, spec):
        return evaluate(model, loader_factory) * 100.0


# ---------------------------------------------------------------------
# Parallel sweep plumbing (see repro.exec)
# ---------------------------------------------------------------------
# Worker-process state, populated once per worker by the executor's
# initializer (in the parent itself when the map runs serially, as
# every observed map does): published model handles, the experiment config, and the
# lazily rebuilt test set.  Models attach as *writable* shared-memory
# copies because fault injection mutates weights in place (restoring
# exact bits afterwards) — one private copy per worker, reused across
# every sweep point that worker evaluates.
_WORKER_STATE: Optional[Dict] = None


def _sweep_worker_init(handles: Dict[str, object], config: ExperimentConfig) -> None:
    global _WORKER_STATE
    _WORKER_STATE = {"handles": handles, "config": config, "models": {}, "data": None}


def _worker_test_loader():
    from ..data import DataLoader, Normalize
    from .context import _build_dataset

    state = _WORKER_STATE
    if state["data"] is None:
        dataset = _build_dataset(state["config"])
        mean, std = dataset.channel_stats()
        state["data"] = (dataset, Normalize(mean, std))
    dataset, normalize = state["data"]
    # Same construction as ExperimentContext.test_loader(): fresh
    # deterministic iterable per evaluation.
    return DataLoader(
        dataset.test_images,
        dataset.test_labels,
        batch_size=state["config"].scale.batch_size,
        transform=normalize,
    )


def _sweep_point_task(payload: Tuple[str, FaultSpec]) -> float:
    """Evaluate one model under one fault spec."""
    from ..exec import attach_model

    model_key, spec = payload
    state = _WORKER_STATE
    model = state["models"].get(model_key)
    if model is None:
        model = attach_model(state["handles"][model_key], writable=True)
        state["models"][model_key] = model
    return _faulted_accuracy(model_key, model, _worker_test_loader(), spec)


_Cell = Tuple[str, str, object]  # (model_key, kind, level)


def _swept_models(kind: str) -> Tuple[str, ...]:
    return _MODEL_KEYS if kind in WEIGHT_KINDS else _MODEL_KEYS[1:]


def _sweep_tasks(
    kinds: Sequence[str], ladders: Dict[str, Sequence], seed: int
) -> Tuple[List[Tuple[str, FaultSpec]], Dict[_Cell, int], List[_Cell]]:
    """One task per distinct ``(model_key, spec)``, in first-cell order.

    Every ladder's level 0 builds the same null spec, so a model's clean
    accuracy is one task that all its level-0 cells read.  Returns the
    tasks, each curve cell's task index, and each task's first cell.
    """
    index: Dict[Tuple[str, FaultSpec], int] = {}
    cells: Dict[_Cell, int] = {}
    first: List[_Cell] = []
    for kind in kinds:
        for level in ladders[kind]:
            spec = build_fault_spec(kind, level, seed=seed)
            for model_key in _swept_models(kind):
                task = (model_key, spec)
                if task not in index:
                    index[task] = len(first)
                    first.append((model_key, kind, level))
                cells[(model_key, kind, level)] = index[task]
    return list(index), cells, first


def run_fault_sweep(
    arch: str = "vgg11",
    dataset: str = "cifar10",
    scale_name: str = "bench",
    timesteps: int = 2,
    fault_kinds: Optional[Sequence[str]] = None,
    ladders: Optional[Dict[str, Sequence]] = None,
    seed: int = 0,
    workers: int = 1,
    executor=None,
) -> Dict:
    """Accuracy-vs-fault-severity curves for DNN / converted / fine-tuned.

    Returns ``{"curves": [{"fault", "levels", "dnn", "converted",
    "finetuned"}, ...]}`` with accuracies in percent; ``dnn`` is ``None``
    for fault kinds that only exist in the spiking domain.

    Each distinct ``(model, FaultSpec)`` is evaluated once: every
    ladder's level 0 builds the same null spec, so a model's clean
    accuracy is one task whose value fills all its level-0 cells (the
    default ladders take 92 tasks for 111 cells), and a repeated level
    is one task too.  Serial and parallel sweeps read the same task list.

    ``workers > 1`` (or an explicit ``executor``) shards the tasks over
    a :class:`repro.exec.ParallelExecutor`: models are published once
    over shared memory, every worker rebuilds the deterministic test
    set, and results are assembled back by task index — so curves are
    bitwise identical to the serial sweep for any worker count.  A
    quarantined task (a genuinely poisonous one) leaves ``None`` in
    every cell it feeds, with ``status="partial"`` and one ``failures``
    entry naming the task's first cell as ``point``, instead of losing
    the whole sweep.  Under an observed run the executor maps serially
    in this process, so the run's fault telemetry is a serial sweep's
    at any worker count.
    """
    scale = get_scale(scale_name)
    config = ExperimentConfig(
        arch=arch, dataset=dataset, timesteps=timesteps, scale=scale, seed=seed
    )
    result = run_pipeline(config)
    context = result.context
    # run_pipeline fine-tunes its conversion in place, so the "straight
    # after conversion" model needs a fresh (deterministic) conversion;
    # the DNN and its calibration images are unchanged, so it reuses
    # run_pipeline's activation statistics.
    converted = convert_only(config, context=context).snn

    kinds = list(fault_kinds) if fault_kinds is not None else list(DEFAULT_LADDERS)
    ladders = {**DEFAULT_LADDERS, **(ladders or {})}

    from ..exec import resolve_executor

    executor = resolve_executor(workers, executor)
    models = {"dnn": context.model, "converted": converted, "finetuned": result.snn}
    tasks, cell_task, first_cell = _sweep_tasks(kinds, ladders, seed)

    failures: List[Dict] = []
    if executor is not None and executor.workers > 1:
        from ..exec import ModelStore

        with ModelStore() as store:
            handles = {key: store.publish(model) for key, model in models.items()}
            outcome = executor.map(
                _sweep_point_task,
                tasks,
                label="fault_sweep",
                initializer=_sweep_worker_init,
                initargs=(handles, config),
            )
        values = outcome.results
        failures = [
            {**failure.as_dict(), "point": list(first_cell[index])}
            for index, failure in sorted(outcome.failures.items())
        ]
    else:
        values = [
            _faulted_accuracy(model_key, models[model_key], context.test_loader(), spec)
            for model_key, spec in tasks
        ]

    curves = []
    for kind in kinds:
        levels = list(ladders[kind])
        curve = {"fault": kind, "levels": levels, "dnn": None}
        for model_key in _swept_models(kind):
            curve[model_key] = [values[cell_task[(model_key, kind, level)]] for level in levels]
        curves.append(curve)

    return {
        "arch": arch,
        "dataset": dataset,
        "timesteps": timesteps,
        "seed": seed,
        "status": "partial" if failures else "ok",
        "failures": failures,
        "curves": curves,
    }


def _format_level(kind: str, level) -> str:
    if kind == "quantization":
        return "fp (none)" if level is None else f"{level} bits"
    return f"{level:g}"


def _format_cell(value: Optional[float]) -> str:
    # ``None`` cells are quarantined sweep points from a partial
    # parallel run (see run_fault_sweep).
    return "-" if value is None else f"{value:.1f}"


def render_fault_sweep(result: Dict) -> str:
    """Markdown-ish tables: one degradation curve per fault kind."""
    timesteps = result["timesteps"]
    blocks = []
    for curve in result["curves"]:
        kind = curve["fault"]
        rows = []
        for i, level in enumerate(curve["levels"]):
            dnn = _format_cell(curve["dnn"][i]) if curve["dnn"] is not None else "-"
            rows.append([
                _format_level(kind, level),
                dnn,
                _format_cell(curve["converted"][i]),
                _format_cell(curve["finetuned"][i]),
            ])
        blocks.append(format_table(
            ["severity", "DNN %", f"converted (T={timesteps}) %",
             f"fine-tuned (T={timesteps}) %"],
            rows,
            title=f"Fault sweep: {kind} ({result['arch']}, {result['dataset']})",
        ))
    if result.get("status") == "partial":
        lines = [
            f"  task {f['index']} {tuple(f['point'])}: {f['kind']} ({f['message']})"
            for f in result.get("failures", [])
        ]
        blocks.append(
            "PARTIAL SWEEP: quarantined/failed points\n" + "\n".join(lines)
        )
    return "\n\n".join(blocks)
