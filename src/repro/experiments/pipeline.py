"""End-to-end pipeline: train DNN -> convert -> SGL fine-tune.

One run of :func:`run_pipeline` produces a Table-I row: the source DNN
accuracy (column a), the accuracy straight after DNN-to-SNN conversion
(column b — "far from SOTA, but a good initialisation"), and the
accuracy after surrogate-gradient fine-tuning in the SNN domain
(column c).

Fine-tuned SNNs are cached per (context, T, strategy) so figures that
reuse them (Figs. 3-4) do not retrain.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

from ..conversion import ConversionConfig, ConversionResult, convert_dnn_to_snn
from ..obs import DriftMonitor, get_logger, is_enabled, record_energy_profile
from ..obs import metrics as obs_metrics
from ..obs import monitored, state as obs_state, trace
from ..snn import SpikingNetwork
from ..train import (
    NonFiniteGuard,
    SNNTrainConfig,
    SNNTrainer,
    TrainingHistory,
    evaluate_snn,
)
from ..utils import CheckpointError, delay_interrupts, load_checkpoint, save_checkpoint
from .config import ExperimentConfig
from .context import ExperimentContext, get_context

_SNN_CACHE: Dict[tuple, "PipelineResult"] = {}

_STATE_FILENAME = "pipeline_state.json"
_SNN_CKPT_FILENAME = "snn_latest.npz"

_log = get_logger("pipeline")


def _pipeline_fingerprint(
    config: ExperimentConfig, strategy: str, fine_tune: bool, snn_lr: float
) -> dict:
    """Identity of one pipeline run — resume refuses to cross it."""
    return {
        "context_key": list(config.context_key()),
        "timesteps": config.timesteps,
        "strategy": strategy,
        "fine_tune": fine_tune,
        "snn_lr": snn_lr,
    }


def _write_pipeline_state(checkpoint_dir: str, state: dict) -> None:
    """Atomically persist the pipeline progress record.

    The temp-write + ``os.replace`` keeps the file itself atomic;
    ``delay_interrupts`` additionally defers SIGINT/SIGTERM across the
    sequence so a kill signal can never be handled between serialising
    and renaming (the deferred signal fires right after the rename).
    """
    os.makedirs(checkpoint_dir, exist_ok=True)
    path = os.path.join(checkpoint_dir, _STATE_FILENAME)
    tmp_path = f"{path}.tmp-{os.getpid()}"
    with delay_interrupts():
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(state, handle, indent=2, sort_keys=True)
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)


def _read_pipeline_state(checkpoint_dir: str) -> Optional[dict]:
    path = os.path.join(checkpoint_dir, _STATE_FILENAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt pipeline state at '{path}': {exc}"
        ) from exc


@dataclass
class PipelineResult:
    """All artefacts of one pipeline run (one Table-I row)."""

    config: ExperimentConfig
    context: ExperimentContext
    conversion: ConversionResult
    snn: SpikingNetwork
    dnn_accuracy: float
    conversion_accuracy: float
    snn_accuracy: float
    snn_history: Optional[TrainingHistory]

    def as_row(self) -> dict:
        return {
            "architecture": self.config.arch,
            "dataset": self.config.dataset,
            "timesteps": self.config.timesteps,
            "dnn_accuracy": self.dnn_accuracy,
            "conversion_accuracy": self.conversion_accuracy,
            "snn_accuracy": self.snn_accuracy,
        }


def convert_only(
    config: ExperimentConfig,
    strategy: str = "proposed",
    context: Optional[ExperimentContext] = None,
    **strategy_kwargs,
) -> ConversionResult:
    """Convert the (cached) trained DNN without fine-tuning."""
    context = context or get_context(config)
    conversion_config = ConversionConfig(
        timesteps=config.timesteps,
        strategy=strategy,
        calibration_batches=config.scale.calibration_batches,
        strategy_kwargs=strategy_kwargs,
    )
    return convert_dnn_to_snn(
        context.model, context.calibration_loader(), conversion_config
    )


def run_pipeline(
    config: ExperimentConfig,
    strategy: str = "proposed",
    fine_tune: bool = True,
    snn_lr: float = 5e-4,
    verbose: bool = False,
    record_drift: Optional[bool] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    guard: Optional[NonFiniteGuard] = None,
    tag_baseline: bool = False,
) -> PipelineResult:
    """Run (or fetch from cache) the full hybrid-training pipeline.

    ``record_drift`` controls the per-layer conversion-drift telemetry
    (:class:`repro.obs.DriftMonitor` snapshots after conversion and
    again after fine-tuning); the default records exactly when an
    observed run is active.

    Resilience knobs:

    - ``checkpoint_dir`` enables periodic auto-checkpointing: every
      ``checkpoint_every`` fine-tuning epochs the SNN is saved
      (atomically) to ``snn_latest.npz`` alongside a
      ``pipeline_state.json`` progress record;
    - ``resume=True`` (requires ``checkpoint_dir``) picks a killed run
      back up: the DNN context and conversion are rebuilt
      deterministically, the latest SNN checkpoint is loaded, and
      fine-tuning restarts at the first incomplete epoch.  Resuming
      against a state file written by a *different* pipeline
      configuration raises :class:`~repro.utils.CheckpointError`;
    - ``guard`` forwards a :class:`~repro.train.NonFiniteGuard` to the
      fine-tuning loop (NaN/Inf detection with rollback + LR backoff).

    Under an observed run the final SNN additionally gets a Section-VI
    energy profile (``energy.*`` gauges via
    :func:`repro.obs.record_energy_profile`), and ``tag_baseline=True``
    marks the observed run as the run registry's comparison baseline
    for ``python -m repro.obs diff --baseline``.
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be at least 1")
    key = (config.context_key(), config.timesteps, strategy, fine_tune, snn_lr)
    if key in _SNN_CACHE:
        return _SNN_CACHE[key]

    fingerprint = _pipeline_fingerprint(config, strategy, fine_tune, snn_lr)
    resumed_state: Optional[dict] = None
    if resume:
        state = _read_pipeline_state(checkpoint_dir)
        if state is not None:
            if state.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    f"checkpoint_dir '{checkpoint_dir}' holds state for a "
                    f"different pipeline run "
                    f"(saved {state.get('fingerprint')}, "
                    f"requested {fingerprint}); use a fresh directory"
                )
            resumed_state = state

    with trace.span(
        "run_pipeline",
        arch=config.arch,
        dataset=config.dataset,
        timesteps=config.timesteps,
        strategy=strategy,
    ) as pipeline_span:
        context = get_context(config, verbose=verbose)
        conversion = convert_only(config, strategy=strategy, context=context)
        test_loader = context.test_loader()
        if resumed_state is not None:
            # The conversion above is deterministic, so its accuracy was
            # already measured before the interrupted run died — reuse
            # it instead of re-evaluating.
            conversion_accuracy = float(resumed_state["conversion_accuracy"])
        else:
            # Post-conversion evaluation doubles as the spiking-activity
            # measurement pass: per-layer spike-rate and
            # membrane-potential histograms land in the metrics registry
            # (Fig. 4 quantities).
            with trace.span("snn_eval", phase="post_conversion") as eval_span:
                with monitored(conversion.snn):
                    conversion_accuracy = evaluate_snn(
                        conversion.snn, test_loader
                    )
                eval_span.set(accuracy=conversion_accuracy)

        # Conversion-drift telemetry: per-layer predicted-vs-measured
        # gap snapshots bracketing the SGL fine-tuning stage.
        drift = None
        if record_drift is None:
            record_drift = is_enabled()
        if record_drift:
            drift = DriftMonitor(conversion, context.model, test_loader)
            drift.snapshot("post_conversion")

        history = None
        if fine_tune:
            snn_epochs = config.scale.snn_epochs
            start_epoch = 1
            if resumed_state is not None:
                ckpt_path = os.path.join(checkpoint_dir, _SNN_CKPT_FILENAME)
                load_checkpoint(conversion.snn, ckpt_path)
                start_epoch = int(resumed_state["completed_epochs"]) + 1
                if start_epoch > config.scale.snn_epochs:
                    _log.info(
                        f"fine-tuning already complete in '{checkpoint_dir}'; "
                        "loaded final weights",
                        checkpoint=ckpt_path,
                    )
                else:
                    _log.info(
                        f"resuming fine-tuning from epoch {start_epoch} "
                        f"(checkpoint '{ckpt_path}')",
                        start_epoch=start_epoch,
                        checkpoint=ckpt_path,
                    )

            on_epoch_end = None
            if checkpoint_dir is not None:
                def on_epoch_end(epoch, _history):
                    if epoch % checkpoint_every != 0 and epoch != snn_epochs:
                        return
                    # The weights archive and the progress record must
                    # advance together: a SIGTERM/Ctrl-C between the
                    # two would leave epoch-N weights with an epoch-N-1
                    # record and a resume would silently diverge.
                    with delay_interrupts():
                        save_checkpoint(
                            conversion.snn,
                            os.path.join(checkpoint_dir, _SNN_CKPT_FILENAME),
                        )
                        _write_pipeline_state(checkpoint_dir, {
                            "fingerprint": fingerprint,
                            "completed_epochs": epoch,
                            "total_epochs": snn_epochs,
                            "conversion_accuracy": conversion_accuracy,
                        })
                    obs_metrics.inc("pipeline.checkpoints_written")
                # A fresh guarded/checkpointed run records its starting
                # point so a kill before epoch 1 completes still resumes
                # cleanly (from the converted weights).
                if resumed_state is None:
                    with delay_interrupts():
                        save_checkpoint(
                            conversion.snn,
                            os.path.join(checkpoint_dir, _SNN_CKPT_FILENAME),
                        )
                        _write_pipeline_state(checkpoint_dir, {
                            "fingerprint": fingerprint,
                            "completed_epochs": 0,
                            "total_epochs": snn_epochs,
                            "conversion_accuracy": conversion_accuracy,
                        })

            if start_epoch <= snn_epochs:
                trainer = SNNTrainer(
                    SNNTrainConfig(epochs=snn_epochs, lr=snn_lr)
                )
                with trace.span("sgl_finetune", epochs=snn_epochs):
                    history = trainer.fit(
                        conversion.snn,
                        context.train_loader(seed=config.seed + 2),
                        test_loader,
                        verbose=verbose,
                        guard=guard,
                        on_epoch_end=on_epoch_end,
                        start_epoch=start_epoch,
                    )
        with trace.span("snn_eval", phase="final") as eval_span:
            snn_accuracy = evaluate_snn(conversion.snn, test_loader)
            eval_span.set(accuracy=snn_accuracy)
        if is_enabled():
            # Section-VI efficiency accounting of the final network —
            # energy.* gauges land in this run's metrics snapshot so the
            # diff engine can compare compute/energy across runs.
            record_energy_profile(
                conversion.snn,
                test_loader,
                context.input_shape,
                max_batches=config.scale.calibration_batches,
            )
        if drift is not None and fine_tune:
            drift.snapshot("post_finetune")
        pipeline_span.set(
            dnn_accuracy=context.dnn_accuracy,
            conversion_accuracy=conversion_accuracy,
            snn_accuracy=snn_accuracy,
        )
        obs_metrics.gauge("pipeline.dnn_accuracy", context.dnn_accuracy)
        obs_metrics.gauge("pipeline.conversion_accuracy", conversion_accuracy)
        obs_metrics.gauge("pipeline.snn_accuracy", snn_accuracy)
        if tag_baseline:
            _tag_run_as_baseline()

    result = PipelineResult(
        config=config,
        context=context,
        conversion=conversion,
        snn=conversion.snn,
        dnn_accuracy=context.dnn_accuracy,
        conversion_accuracy=conversion_accuracy,
        snn_accuracy=snn_accuracy,
        snn_history=history,
    )
    _SNN_CACHE[key] = result
    return result


def _tag_run_as_baseline() -> None:
    """Mark the active observed run as the registry's diff baseline."""
    from ..obs.registry import RunRegistry

    run_id = obs_state().run_id
    if run_id is None:
        _log.warning(
            "tag_baseline=True but no observed run is active; "
            "run under `with observe(run_dir): ...` (or --trace) to tag"
        )
        return
    try:
        RunRegistry().set_baseline(run_id)
        _log.info(f"tagged run {run_id} as the registry baseline")
    except (KeyError, OSError) as exc:
        # Registration is best-effort (disabled registry, in-memory
        # run); a failed tag must not fail the pipeline.
        _log.warning(f"could not tag baseline run: {exc}")


def clear_pipeline_cache() -> None:
    """Drop cached pipeline results (used by tests)."""
    _SNN_CACHE.clear()
