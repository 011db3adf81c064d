"""Streaming training-health monitors: detect pathologies *during* SGL.

Conversion failure at ultra-low T rarely announces itself as a final
accuracy number — it shows up mid-training as layers falling silent
(spike-rate collapse), thresholds pinned at their clamp floor, leaks
saturating, gradient norms exploding just before the
:class:`~repro.train.NonFiniteGuard` trips, or the loss flat-lining.
:class:`HealthMonitor` evaluates those rules against a per-epoch stream
fed by the trainers (:meth:`observe_epoch`) and emits:

- one JSONL record per alert into the run directory's ``alerts.jsonl``
  (``kind: "alert"``), plus a ``kind: "health"`` heartbeat per epoch
  carrying loss, accuracy and per-layer spike rates;
- ``health.*`` gauges and an ``health.alerts`` counter in the metrics
  registry (only while observability is enabled, like every writer).

An observed run installs a default monitor automatically
(:func:`repro.obs.configure`); the trainers talk to it through the
module-level :func:`observe_epoch`, which is a no-op when no monitor is
installed — the disabled path costs one ``None`` check per epoch.

Rules fire once per pathological stretch (re-arming when the condition
clears), so a layer silent for fifty epochs yields one alert, not fifty.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import core
from . import metrics as obs_metrics

ALERTS_FILENAME = "alerts.jsonl"

_MAX_RECORDS = 65_536

# Rule thresholds.  A layer whose spike rate stays below COLLAPSE_RATE
# for COLLAPSE_EPOCHS consecutive epochs has collapsed, but only at
# ultra-low latency (T <= COLLAPSE_MAX_TIMESTEPS), where silence is the
# known conversion pathology rather than sparsity working.
COLLAPSE_RATE = 1e-3
COLLAPSE_EPOCHS = 2
COLLAPSE_MAX_TIMESTEPS = 3
# Alert when at least this fraction of a layer's thresholds sit at the
# clamp floor, or of its leaks at the [0, 1] bounds.
SATURATION_FRACTION = 0.5
# Absolute bound and epoch-over-epoch growth bound on the gradient norm
# (caught before the NonFiniteGuard sees NaN/Inf).
GRAD_NORM_LIMIT = 1e3
GRAD_GROWTH_FACTOR = 100.0
# The loss has plateaued when its range over the last PLATEAU_EPOCHS
# epochs is below PLATEAU_RTOL relative to its magnitude.
PLATEAU_EPOCHS = 4
PLATEAU_RTOL = 1e-3


class HealthMonitor:
    """Evaluates the health rules over one training run's epoch stream.

    Records land in the active observed run's ``alerts.jsonl`` (opened
    on the first record, so a run without records leaves no file) and
    always in the bounded in-memory ``records`` / ``alerts`` lists.
    """

    def __init__(self) -> None:
        self.alerts: List[dict] = []
        self.records: List[dict] = []
        # Rule state, keyed per (kind, layer) where relevant.
        self._losses: Dict[str, List[float]] = {}
        self._grad_norms: Dict[str, List[float]] = {}
        self._silent_epochs: Dict[int, int] = {}
        self._collapsed: Dict[int, bool] = {}
        self._plateau_active: Dict[str, bool] = {}
        self._saturated: Dict[str, bool] = {}
        self._exploded: Dict[str, bool] = {}
        self._exec_active: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    def _write(self, record: dict) -> None:
        if len(self.records) < _MAX_RECORDS:
            self.records.append(record)
        core.append(ALERTS_FILENAME, record)

    def alert(
        self, rule: str, message: str, severity: str = "warning", **fields
    ) -> dict:
        """Emit one structured alert (JSONL + counter + in-memory)."""
        record = {
            "kind": "alert",
            "ts": time.time(),
            "rule": rule,
            "severity": severity,
            "message": message,
            **fields,
        }
        if len(self.alerts) < _MAX_RECORDS:
            self.alerts.append(record)
        self._write(record)
        obs_metrics.inc("health.alerts", 1.0, rule=rule)
        return record

    def observe_exec(
        self, label: str, failures: int = 0, detail: Optional[str] = None
    ) -> List[dict]:
        """Surface permanently failed executor tasks as an alert.

        Called by :meth:`repro.exec.ParallelExecutor.map` after each
        observed map with that map's count of tasks that raised past
        their retries.  Like the training rules, the rule fires once per
        pathological stretch: a map under ``label`` with task failures
        arms it, and only a clean map under the same label re-arms it —
        a sweep retried across twenty maps yields one alert, not twenty.
        """
        key = f"exec_task_failures:{label}"
        if failures <= 0:
            self._exec_active[key] = False
            return []
        if self._exec_active.get(key, False):
            return []
        self._exec_active[key] = True
        fields = {"label": label, "count": failures}
        if detail:
            fields["detail"] = detail
        message = f"{failures} task(s) failed permanently in map '{label}'"
        return [self.alert("exec_task_failures", message, severity="error", **fields)]

    # ------------------------------------------------------------------
    def observe_epoch(
        self,
        kind: str,
        epoch: int,
        loss: float,
        accuracy: Optional[float] = None,
        grad_norm: Optional[float] = None,
        model=None,
        timesteps: Optional[int] = None,
        layer_rates: Optional[Sequence[float]] = None,
    ) -> List[dict]:
        """Feed one epoch of training telemetry; returns new alerts.

        ``kind`` separates streams (``"dnn"`` / ``"snn"``); ``model`` is
        scanned for threshold/leak saturation when it exposes
        ``spiking_neurons()``; ``layer_rates`` are average per-layer
        spike rates measured this epoch.
        """
        new_alerts: List[dict] = []

        def fired(record: Optional[dict]) -> None:
            if record is not None:
                new_alerts.append(record)

        fired(self._check_grad_norm(kind, epoch, grad_norm))
        fired(self._check_plateau(kind, epoch, loss))
        for record in self._check_collapse(epoch, timesteps, layer_rates):
            new_alerts.append(record)
        for record in self._check_saturation(kind, epoch, model):
            new_alerts.append(record)

        heartbeat = {
            "kind": "health",
            "ts": time.time(),
            "stream": kind,
            "epoch": epoch,
            "loss": None if loss is None else float(loss),
        }
        if accuracy is not None and np.isfinite(accuracy):
            heartbeat["accuracy"] = float(accuracy)
        if grad_norm is not None:
            heartbeat["grad_norm"] = float(grad_norm)
        if layer_rates is not None:
            heartbeat["layer_rates"] = [float(r) for r in layer_rates]
        if timesteps is not None:
            heartbeat["timesteps"] = int(timesteps)
        self._write(heartbeat)

        if loss is not None:
            obs_metrics.gauge("health.loss", float(loss), stream=kind)
        if grad_norm is not None:
            obs_metrics.gauge("health.grad_norm", float(grad_norm), stream=kind)
        if layer_rates is not None:
            for index, rate in enumerate(layer_rates):
                obs_metrics.gauge("health.spike_rate", float(rate), layer=index)
        return new_alerts

    # -- individual rules ----------------------------------------------
    def _check_grad_norm(
        self, kind: str, epoch: int, grad_norm: Optional[float]
    ) -> Optional[dict]:
        if grad_norm is None:
            return None
        history = self._grad_norms.setdefault(kind, [])
        previous = history[-1] if history else None
        history.append(float(grad_norm))
        exploded = (
            not np.isfinite(grad_norm)
            or grad_norm > GRAD_NORM_LIMIT
            or (
                previous is not None
                and previous > 0
                and grad_norm > GRAD_GROWTH_FACTOR * previous
            )
        )
        if not exploded:
            self._exploded[kind] = False
            return None
        if self._exploded.get(kind):
            return None  # still in the same explosion stretch
        self._exploded[kind] = True
        return self.alert(
            "grad_explosion",
            f"gradient norm {grad_norm:.3g} exploded at epoch {epoch} "
            f"(limit {GRAD_NORM_LIMIT:.3g})",
            severity="critical",
            stream=kind,
            epoch=epoch,
            grad_norm=float(grad_norm),
        )

    def _check_plateau(self, kind: str, epoch: int, loss) -> Optional[dict]:
        if loss is None or not np.isfinite(loss):
            return None
        history = self._losses.setdefault(kind, [])
        history.append(float(loss))
        if len(history) < PLATEAU_EPOCHS:
            return None
        window = history[-PLATEAU_EPOCHS:]
        scale = max(abs(float(np.mean(window))), 1e-12)
        plateaued = (max(window) - min(window)) <= PLATEAU_RTOL * scale
        if not plateaued:
            self._plateau_active[kind] = False
            return None
        if self._plateau_active.get(kind):
            return None
        self._plateau_active[kind] = True
        return self.alert(
            "loss_plateau",
            f"loss flat at {window[-1]:.4g} over the last "
            f"{PLATEAU_EPOCHS} epochs (epoch {epoch})",
            stream=kind,
            epoch=epoch,
            loss=window[-1],
            window=PLATEAU_EPOCHS,
        )

    def _check_collapse(
        self,
        epoch: int,
        timesteps: Optional[int],
        layer_rates: Optional[Sequence[float]],
    ) -> List[dict]:
        if layer_rates is None:
            return []
        if timesteps is None or timesteps > COLLAPSE_MAX_TIMESTEPS:
            return []
        alerts = []
        for layer, rate in enumerate(layer_rates):
            if rate < COLLAPSE_RATE:
                self._silent_epochs[layer] = self._silent_epochs.get(layer, 0) + 1
            else:
                self._silent_epochs[layer] = 0
                self._collapsed[layer] = False
            if (
                self._silent_epochs[layer] >= COLLAPSE_EPOCHS
                and not self._collapsed.get(layer)
            ):
                self._collapsed[layer] = True
                alerts.append(self.alert(
                    "spike_collapse",
                    f"layer {layer} silent (rate {rate:.2g} < "
                    f"{COLLAPSE_RATE:.2g}) for "
                    f"{self._silent_epochs[layer]} consecutive epochs "
                    f"at T={timesteps}",
                    severity="critical",
                    layer=layer,
                    epoch=epoch,
                    rate=float(rate),
                    timesteps=int(timesteps),
                ))
        return alerts

    def _check_saturation(self, kind: str, epoch: int, model) -> List[dict]:
        if model is None or not hasattr(model, "spiking_neurons"):
            return []
        from ..train.trainer import MIN_THRESHOLD

        alerts = []
        for layer, neuron in enumerate(model.spiking_neurons()):
            thresholds = neuron.v_threshold.data
            leaks = neuron.leak.data
            # The trainer clamps to exactly MIN_THRESHOLD / the leak
            # bounds, so a tiny tolerance identifies pinned parameters.
            thr_frac = float(np.mean(thresholds <= MIN_THRESHOLD * (1 + 1e-6)))
            leak_frac = float(np.mean((leaks <= 1e-6) | (leaks >= 1.0 - 1e-6)))
            for what, frac in (("threshold", thr_frac), ("leak", leak_frac)):
                key = f"{kind}:{layer}:{what}"
                if frac < SATURATION_FRACTION:
                    self._saturated[key] = False
                    continue
                if self._saturated.get(key):
                    continue
                self._saturated[key] = True
                alerts.append(self.alert(
                    f"{what}_saturation",
                    f"{frac:.0%} of layer {layer} {what}s pinned at their "
                    f"bound (epoch {epoch})",
                    layer=layer,
                    epoch=epoch,
                    fraction=frac,
                    stream=kind,
                ))
        return alerts


# ----------------------------------------------------------------------
# Module-level hook the trainers talk to
# ----------------------------------------------------------------------
_ACTIVE: Optional[HealthMonitor] = None


def install(monitor: HealthMonitor) -> HealthMonitor:
    """Make ``monitor`` the active sink for trainer health telemetry."""
    global _ACTIVE
    _ACTIVE = monitor
    return monitor


def uninstall() -> None:
    """Remove the active monitor."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[HealthMonitor]:
    """The installed monitor, or ``None`` (the trainers' cheap check)."""
    return _ACTIVE


def observe_epoch(kind: str, epoch: int, loss: float, **kwargs) -> List[dict]:
    """Forward one epoch of telemetry to the active monitor (no-op
    when none is installed)."""
    if _ACTIVE is None:
        return []
    return _ACTIVE.observe_epoch(kind, epoch, loss, **kwargs)


def gradient_sq_norm(model) -> float:
    """Sum of squared gradient entries over all parameters (the
    trainers accumulate ``sqrt`` of the per-epoch max of this)."""
    total = 0.0
    for param in model.parameters():
        grad = param.grad
        if grad is not None:
            total += float(np.sum(np.square(grad)))
    return total
