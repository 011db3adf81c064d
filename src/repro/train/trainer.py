"""DNN training loop (paper Section IV-A recipe).

SGD with momentum, LR decayed by 0.1 at 60/80/90% of the epoch budget,
cross-entropy loss, dropout regularisation, trainable clipping
thresholds learned jointly with the weights.  The trainer clamps each
``ThresholdReLU``'s ``mu`` to stay positive after every step (gradient
noise can otherwise push a threshold through zero early in training).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..nn import CrossEntropyLoss, Module, ThresholdReLU
from ..obs import get_logger
from ..obs import health as obs_health
from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs import trace
from ..optim import SGD, MultiStepLR, paper_milestones
from ..tensor import Tensor
from ..tensor.autograd import recycle_buffers
from .guard import NonFiniteDetected, NonFiniteGuard
from .history import TrainingHistory
from .metrics import evaluate_dnn

MIN_THRESHOLD = 1e-2

_log = get_logger("dnn")


@dataclass
class DNNTrainConfig:
    """Hyperparameters for DNN training.

    Defaults follow the paper (LR 0.01, decay 0.1 at 60/80/90%);
    ``epochs`` is experiment-specific.
    """

    epochs: int = 30
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    gamma: float = 0.1
    label_smoothing: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")


def clamp_thresholds(model: Module, minimum: float = MIN_THRESHOLD) -> None:
    """Keep every trainable clipping threshold strictly positive."""
    for module in model.modules():
        if isinstance(module, ThresholdReLU):
            np.maximum(module.mu.data, minimum, out=module.mu.data)


class DNNTrainer:
    """Trains a DNN and records per-epoch curves."""

    def __init__(self, config: DNNTrainConfig) -> None:
        self.config = config
        self.criterion = CrossEntropyLoss(label_smoothing=config.label_smoothing)

    def _train_epoch(
        self,
        model: Module,
        optimizer,
        train_batches_factory,
        guard: Optional[NonFiniteGuard],
    ):
        """One pass over the training set; raises
        :class:`NonFiniteDetected` when the guard spots NaN/Inf."""
        losses, correct, seen = [], 0, 0
        health_monitor = obs_health.active()
        max_grad_sq = 0.0
        for images, labels in train_batches_factory:
            optimizer.zero_grad()
            logits = model(Tensor(np.asarray(images)))
            loss = self.criterion(logits, labels)
            loss.backward()
            if health_monitor is not None:
                # Track the epoch's worst gradient norm *before* the
                # guard clears/rolls back anything — explosion alerts
                # should fire ahead of the NaN they precede.
                max_grad_sq = max(max_grad_sq, obs_health.gradient_sq_norm(model))
            if guard is not None:
                site = guard.scan(model, loss)
                if site is not None:
                    raise NonFiniteDetected(site)
            optimizer.step()
            clamp_thresholds(model)
            losses.append(loss.item())
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            seen += len(labels)
        grad_norm = float(np.sqrt(max_grad_sq)) if health_monitor else None
        return losses, correct, seen, grad_norm

    @recycle_buffers()
    def fit(
        self,
        model: Module,
        train_batches_factory,
        test_batches_factory=None,
        verbose: bool = False,
        guard: Optional[NonFiniteGuard] = None,
        on_epoch_end=None,
        start_epoch: int = 1,
    ) -> TrainingHistory:
        """Train ``model``.

        ``train_batches_factory`` / ``test_batches_factory`` are
        re-iterables (e.g. :class:`repro.data.DataLoader`) yielding
        ``(images, labels)`` batches each epoch.

        ``guard`` enables NaN/Inf detection with rollback + LR-backoff
        recovery; ``on_epoch_end(epoch, history)`` fires after every
        completed epoch (checkpointing hook); ``start_epoch`` resumes a
        run mid-schedule (the LR schedule is fast-forwarded to match).
        """
        cfg = self.config
        if not 1 <= start_epoch <= cfg.epochs:
            raise ValueError(
                f"start_epoch must lie in [1, {cfg.epochs}], got {start_epoch}"
            )
        optimizer = SGD(
            model.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )
        scheduler = MultiStepLR(
            optimizer, milestones=paper_milestones(cfg.epochs), gamma=cfg.gamma
        )
        for _ in range(1, start_epoch):
            scheduler.step()
        history = TrainingHistory()
        if guard is not None:
            guard.note_good_epoch(model, start_epoch - 1)

        for epoch in range(start_epoch, cfg.epochs + 1):
            with trace.span("dnn_epoch", epoch=epoch) as span:
                started = time.perf_counter()
                while True:
                    model.train()
                    try:
                        with obs_profile.region("dnn.train_epoch"):
                            losses, correct, seen, grad_norm = self._train_epoch(
                                model, optimizer, train_batches_factory, guard
                            )
                        break
                    except NonFiniteDetected as detected:
                        guard.recover(
                            model, optimizer, scheduler,
                            site=detected.site, epoch=epoch,
                        )
                if guard is not None:
                    guard.note_good_epoch(model, epoch)
                elapsed = time.perf_counter() - started

                if test_batches_factory is not None:
                    with obs_profile.region("dnn.eval"):
                        test_acc = evaluate_dnn(model, test_batches_factory)
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
                obs_metrics.gauge("dnn.train_loss", history.train_loss[-1])
                obs_metrics.gauge("dnn.train_accuracy", history.train_accuracy[-1])
                obs_metrics.gauge("dnn.test_accuracy", test_acc)
                obs_metrics.observe("dnn.epoch_seconds", elapsed)
                obs_metrics.inc("dnn.examples_seen", seen)
                obs_health.observe_epoch(
                    "dnn",
                    epoch,
                    loss=history.train_loss[-1],
                    accuracy=test_acc,
                    grad_norm=grad_norm,
                )
                scheduler.step()
                _log.log(
                    "info" if verbose else "debug",
                    f"epoch {epoch:3d}/{cfg.epochs} "
                    f"loss={history.train_loss[-1]:.4f} "
                    f"train={history.train_accuracy[-1]:.3f} "
                    f"test={test_acc:.3f} ({elapsed:.1f}s)",
                    epoch=epoch,
                    train_loss=history.train_loss[-1],
                    train_accuracy=history.train_accuracy[-1],
                    test_accuracy=test_acc,
                    seconds=elapsed,
                )
                if on_epoch_end is not None:
                    on_epoch_end(epoch, history)
        return history
