"""SNN fine-tuning with surrogate-gradient learning (SGL).

After conversion the SNN is trained in the spiking domain (paper
Section III-B): the temporal unroll is differentiated end-to-end (BPTT
through all ``T`` steps), the spike discontinuity uses the boxcar
surrogate, and the weights, thresholds and leaks are optimised jointly
(following DIET-SNN).  Per the paper, the SNN learning rate starts two
orders of magnitude below the DNN's and decays on the same milestones.

The trainer clamps thresholds positive and leaks into ``[0, 1]`` after
every step — the constrained parameterisation of the LIF model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import CrossEntropyLoss
from ..obs import get_logger
from ..obs import health as obs_health
from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs import trace
from ..obs.instruments import record_spike_profile
from ..optim import SGD, Adam, MultiStepLR, paper_milestones
from ..snn import SpikingNetwork, count_spikes
from ..tensor.autograd import recycle_buffers
from .guard import NonFiniteDetected, NonFiniteGuard
from .history import TrainingHistory
from .metrics import evaluate_snn
from .trainer import MIN_THRESHOLD

MIN_LEAK, MAX_LEAK = 0.0, 1.0

_log = get_logger("snn")


@dataclass
class SNNTrainConfig:
    """Hyperparameters for SGL fine-tuning.

    Defaults mirror the paper: a small starting LR (1e-4 in the paper
    for full-scale runs) with the same 60/80/90% decay.

    Extensions beyond the paper (both default off):

    - ``spike_penalty`` adds an L1 spike-rate regulariser (Spike-Thrift
      style) trading accuracy against inference energy;
    - ``input_noise_std`` trains with Gaussian input noise (HIRE-SNN
      style) for robustness.
    """

    epochs: int = 20
    lr: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9
    weight_decay: float = 0.0
    gamma: float = 0.1
    train_thresholds: bool = True
    train_leaks: bool = True
    spike_penalty: float = 0.0
    input_noise_std: float = 0.0
    noise_seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.spike_penalty < 0:
            raise ValueError("spike_penalty must be non-negative")
        if self.input_noise_std < 0:
            raise ValueError("input_noise_std must be non-negative")


def clamp_neuron_parameters(snn: SpikingNetwork) -> None:
    """Project neuron parameters back onto their valid ranges."""
    for neuron in snn.spiking_neurons():
        np.maximum(neuron.v_threshold.data, MIN_THRESHOLD, out=neuron.v_threshold.data)
        np.clip(neuron.leak.data, MIN_LEAK, MAX_LEAK, out=neuron.leak.data)


class SNNTrainer:
    """Fine-tunes a converted SNN with BPTT + surrogate gradients."""

    def __init__(self, config: SNNTrainConfig) -> None:
        self.config = config
        self.criterion = CrossEntropyLoss()

    def _configure_trainability(self, snn: SpikingNetwork) -> None:
        for neuron in snn.spiking_neurons():
            neuron.v_threshold.requires_grad = self.config.train_thresholds
            neuron.leak.requires_grad = self.config.train_leaks

    def _build_optimizer(self, snn: SpikingNetwork):
        cfg = self.config
        params = [p for p in snn.parameters() if p.requires_grad]
        if cfg.optimizer == "adam":
            return Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        return SGD(
            params, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay
        )

    @recycle_buffers()
    def fit(
        self,
        snn: SpikingNetwork,
        train_batches_factory,
        test_batches_factory=None,
        verbose: bool = False,
        guard: Optional[NonFiniteGuard] = None,
        on_epoch_end=None,
        start_epoch: int = 1,
    ) -> TrainingHistory:
        """Fine-tune ``snn`` in the spiking domain.

        ``guard`` enables NaN/Inf detection with rollback + LR-backoff
        recovery; ``on_epoch_end(epoch, history)`` fires after every
        completed epoch (the pipeline's auto-checkpoint hook);
        ``start_epoch`` resumes mid-schedule (the LR schedule is
        fast-forwarded to match).
        """
        from .regularizers import SpikeRateRegularizer

        cfg = self.config
        if not 1 <= start_epoch <= cfg.epochs:
            raise ValueError(
                f"start_epoch must lie in [1, {cfg.epochs}], got {start_epoch}"
            )
        self._configure_trainability(snn)
        optimizer = self._build_optimizer(snn)
        scheduler = MultiStepLR(
            optimizer, milestones=paper_milestones(cfg.epochs), gamma=cfg.gamma
        )
        for _ in range(1, start_epoch):
            scheduler.step()
        history = TrainingHistory()
        regularizer = None
        if cfg.spike_penalty > 0:
            regularizer = SpikeRateRegularizer(cfg.spike_penalty).attach(snn)
        noise_rng = np.random.default_rng(cfg.noise_seed)
        try:
            self._run_epochs(
                snn, train_batches_factory, test_batches_factory,
                optimizer, scheduler, history, regularizer, noise_rng, verbose,
                guard, on_epoch_end, start_epoch,
            )
        finally:
            if regularizer is not None:
                regularizer.detach()
        return history

    def _train_epoch(
        self, snn, optimizer, train_batches_factory, regularizer, noise_rng,
        guard,
    ):
        """One pass over the training set; raises
        :class:`NonFiniteDetected` when the guard spots NaN/Inf."""
        cfg = self.config
        losses, correct, seen = [], 0, 0
        health_monitor = obs_health.active()
        max_grad_sq = 0.0
        for images, labels in train_batches_factory:
            optimizer.zero_grad()
            images = np.asarray(images)
            if cfg.input_noise_std > 0:
                images = images + noise_rng.normal(
                    0.0, cfg.input_noise_std, size=images.shape
                )
            if regularizer is not None:
                regularizer.reset()
            logits = snn(images)
            loss = self.criterion(logits, labels)
            if regularizer is not None:
                penalty = regularizer.penalty()
                if penalty is not None:
                    loss = loss + penalty
            loss.backward()
            if health_monitor is not None:
                # Worst gradient norm of the epoch, sampled before the
                # guard can roll anything back — the explosion alert is
                # the early warning for the NaN the guard later catches.
                max_grad_sq = max(max_grad_sq, obs_health.gradient_sq_norm(snn))
            if guard is not None:
                site = guard.scan(snn, loss)
                if site is not None:
                    raise NonFiniteDetected(site)
            optimizer.step()
            clamp_neuron_parameters(snn)
            losses.append(loss.item())
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            seen += len(labels)
        grad_norm = float(np.sqrt(max_grad_sq)) if health_monitor else None
        return losses, correct, seen, grad_norm

    def _run_epochs(
        self,
        snn,
        train_batches_factory,
        test_batches_factory,
        optimizer,
        scheduler,
        history,
        regularizer,
        noise_rng,
        verbose,
        guard=None,
        on_epoch_end=None,
        start_epoch: int = 1,
    ) -> None:
        cfg = self.config
        if guard is not None:
            guard.note_good_epoch(snn, start_epoch - 1)
        for epoch in range(start_epoch, cfg.epochs + 1):
            with trace.span(
                "snn_epoch", epoch=epoch, timesteps=snn.timesteps
            ) as span:
                started = time.perf_counter()
                while True:
                    snn.train()
                    try:
                        with obs_profile.region("snn.train_epoch"):
                            losses, correct, seen, grad_norm = self._train_epoch(
                                snn, optimizer, train_batches_factory,
                                regularizer, noise_rng, guard,
                            )
                        break
                    except NonFiniteDetected as detected:
                        guard.recover(
                            snn, optimizer, scheduler,
                            site=detected.site, epoch=epoch,
                        )
                if guard is not None:
                    guard.note_good_epoch(snn, epoch)
                elapsed = time.perf_counter() - started

                layer_rates = None
                health_monitor = obs_health.active()
                if test_batches_factory is not None and health_monitor is not None:
                    # Piggyback spike-rate measurement on the epoch's
                    # test pass: count spikes for its duration and fold
                    # them into per-layer rates for the collapse rule.
                    with count_spikes(snn) as counts:
                        with obs_profile.region("snn.eval"):
                            test_acc = evaluate_snn(snn, test_batches_factory)
                    layer_rates = record_spike_profile(counts)
                elif test_batches_factory is not None:
                    with obs_profile.region("snn.eval"):
                        test_acc = evaluate_snn(snn, test_batches_factory)
                else:
                    test_acc = float("nan")
                history.record(
                    epoch=epoch,
                    train_loss=float(np.mean(losses)) if losses else float("nan"),
                    train_accuracy=correct / max(seen, 1),
                    test_accuracy=test_acc,
                    learning_rate=optimizer.lr,
                    epoch_seconds=elapsed,
                )
                span.set(
                    train_loss=history.train_loss[-1],
                    train_accuracy=history.train_accuracy[-1],
                    test_accuracy=test_acc,
                )
                obs_metrics.gauge("snn.train_loss", history.train_loss[-1])
                obs_metrics.gauge("snn.train_accuracy", history.train_accuracy[-1])
                obs_metrics.gauge("snn.test_accuracy", test_acc)
                obs_metrics.observe("snn.epoch_seconds", elapsed)
                obs_metrics.inc("snn.examples_seen", seen)
                obs_health.observe_epoch(
                    "snn",
                    epoch,
                    loss=history.train_loss[-1],
                    accuracy=test_acc,
                    grad_norm=grad_norm,
                    model=snn,
                    timesteps=snn.timesteps,
                    layer_rates=layer_rates,
                )
                scheduler.step()
                _log.log(
                    "info" if verbose else "debug",
                    f"T={snn.timesteps} epoch {epoch:3d}/{cfg.epochs} "
                    f"loss={history.train_loss[-1]:.4f} "
                    f"train={history.train_accuracy[-1]:.3f} "
                    f"test={test_acc:.3f} ({elapsed:.1f}s)",
                    epoch=epoch,
                    timesteps=snn.timesteps,
                    train_loss=history.train_loss[-1],
                    train_accuracy=history.train_accuracy[-1],
                    test_accuracy=test_acc,
                    seconds=elapsed,
                )
                if on_epoch_end is not None:
                    on_epoch_end(epoch, history)
