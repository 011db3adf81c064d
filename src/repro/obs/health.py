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
  registry (global registry only while observability is enabled, an
  explicit registry always — the library-wide contract).

An observed run installs a default monitor automatically
(:func:`repro.obs.configure`); the trainers talk to it through the
module-level :func:`observe_epoch`, which is a no-op when no monitor is
installed — the disabled path costs one ``None`` check per epoch.

Rules fire once per pathological stretch (re-arming when the condition
clears), so a layer silent for fifty epochs yields one alert, not fifty.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import IO, Dict, List, Optional, Sequence

import numpy as np

from . import metrics as obs_metrics
from .core import _STATE, is_enabled
from .metrics import MetricsRegistry

ALERTS_FILENAME = "alerts.jsonl"

_MAX_RECORDS = 65_536


@dataclass
class HealthConfig:
    """Thresholds for the streaming health rules.

    - ``collapse_rate`` / ``collapse_epochs``: a layer whose spike rate
      stays below ``collapse_rate`` for ``collapse_epochs`` consecutive
      epochs has collapsed — but only at ultra-low latency
      (``timesteps <= collapse_max_timesteps``), where silence is the
      known conversion pathology rather than sparsity working;
    - ``saturation_fraction``: alert when at least this fraction of a
      layer's thresholds sit at the clamp floor or of its leaks at the
      [0, 1] bounds;
    - ``grad_norm_limit`` / ``grad_growth_factor``: absolute explosion
      bound and epoch-over-epoch growth bound on the gradient norm
      (caught *before* the NonFiniteGuard sees NaN/Inf);
    - ``plateau_epochs`` / ``plateau_rtol``: the loss has plateaued when
      its range over the last ``plateau_epochs`` epochs is below
      ``plateau_rtol`` relative to its magnitude.
    """

    collapse_rate: float = 1e-3
    collapse_epochs: int = 2
    collapse_max_timesteps: int = 3
    saturation_fraction: float = 0.5
    grad_norm_limit: float = 1e3
    grad_growth_factor: float = 100.0
    plateau_epochs: int = 4
    plateau_rtol: float = 1e-3

    def __post_init__(self) -> None:
        if self.collapse_epochs < 1 or self.plateau_epochs < 2:
            raise ValueError("rule windows must cover at least one step")
        if not 0.0 < self.saturation_fraction <= 1.0:
            raise ValueError("saturation_fraction must lie in (0, 1]")


class HealthMonitor:
    """Evaluates the health rules over one training run's epoch stream.

    Parameters follow the telemetry convention (:class:`DriftMonitor`,
    :class:`FaultTelemetry`): ``registry`` defaults to the global one
    (which only records while observability is enabled), ``run_dir``
    defaults to the active observed run's directory.  ``alerts.jsonl``
    is opened lazily on the first record, so a healthy run leaves no
    empty file behind.
    """

    def __init__(
        self,
        config: Optional[HealthConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        run_dir: Optional[str] = None,
        prefix: str = "health",
    ) -> None:
        self.config = config if config is not None else HealthConfig()
        self.prefix = prefix
        self.registry = registry if registry is not None else obs_metrics.get_registry()
        self._global_registry = registry is None
        if run_dir is None:
            run_dir = _STATE.run_dir
        self.run_dir = run_dir
        self._fp: Optional[IO[str]] = None
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
    def _record_metrics(self) -> bool:
        return not self._global_registry or is_enabled()

    def _write(self, record: dict) -> None:
        if len(self.records) < _MAX_RECORDS:
            self.records.append(record)
        if self._fp is None and self.run_dir is not None:
            os.makedirs(self.run_dir, exist_ok=True)
            self._fp = open(
                os.path.join(self.run_dir, ALERTS_FILENAME), "a", encoding="utf-8"
            )
        if self._fp is not None:
            self._fp.write(json.dumps(record, default=repr) + "\n")
            self._fp.flush()

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
        if self._record_metrics():
            self.registry.inc(f"{self.prefix}.alerts", 1.0, rule=rule)
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

        if self._record_metrics():
            if loss is not None:
                self.registry.set_gauge(f"{self.prefix}.loss", float(loss), stream=kind)
            if grad_norm is not None:
                self.registry.set_gauge(
                    f"{self.prefix}.grad_norm", float(grad_norm), stream=kind
                )
            if layer_rates is not None:
                for index, rate in enumerate(layer_rates):
                    self.registry.set_gauge(
                        f"{self.prefix}.spike_rate", float(rate), layer=index
                    )
        return new_alerts

    # -- individual rules ----------------------------------------------
    def _check_grad_norm(
        self, kind: str, epoch: int, grad_norm: Optional[float]
    ) -> Optional[dict]:
        if grad_norm is None:
            return None
        cfg = self.config
        history = self._grad_norms.setdefault(kind, [])
        previous = history[-1] if history else None
        history.append(float(grad_norm))
        exploded = (
            not np.isfinite(grad_norm)
            or grad_norm > cfg.grad_norm_limit
            or (
                previous is not None
                and previous > 0
                and grad_norm > cfg.grad_growth_factor * previous
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
            f"(limit {cfg.grad_norm_limit:.3g})",
            severity="critical",
            stream=kind,
            epoch=epoch,
            grad_norm=float(grad_norm),
        )

    def _check_plateau(self, kind: str, epoch: int, loss) -> Optional[dict]:
        if loss is None or not np.isfinite(loss):
            return None
        cfg = self.config
        history = self._losses.setdefault(kind, [])
        history.append(float(loss))
        if len(history) < cfg.plateau_epochs:
            return None
        window = history[-cfg.plateau_epochs:]
        scale = max(abs(float(np.mean(window))), 1e-12)
        plateaued = (max(window) - min(window)) <= cfg.plateau_rtol * scale
        if not plateaued:
            self._plateau_active[kind] = False
            return None
        if self._plateau_active.get(kind):
            return None
        self._plateau_active[kind] = True
        return self.alert(
            "loss_plateau",
            f"loss flat at {window[-1]:.4g} over the last "
            f"{cfg.plateau_epochs} epochs (epoch {epoch})",
            stream=kind,
            epoch=epoch,
            loss=window[-1],
            window=cfg.plateau_epochs,
        )

    def _check_collapse(
        self,
        epoch: int,
        timesteps: Optional[int],
        layer_rates: Optional[Sequence[float]],
    ) -> List[dict]:
        cfg = self.config
        if layer_rates is None:
            return []
        if timesteps is None or timesteps > cfg.collapse_max_timesteps:
            return []
        alerts = []
        for layer, rate in enumerate(layer_rates):
            if rate < cfg.collapse_rate:
                self._silent_epochs[layer] = self._silent_epochs.get(layer, 0) + 1
            else:
                self._silent_epochs[layer] = 0
                self._collapsed[layer] = False
            if (
                self._silent_epochs[layer] >= cfg.collapse_epochs
                and not self._collapsed.get(layer)
            ):
                self._collapsed[layer] = True
                alerts.append(self.alert(
                    "spike_collapse",
                    f"layer {layer} silent (rate {rate:.2g} < "
                    f"{cfg.collapse_rate:.2g}) for "
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
        cfg = self.config
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
                if frac < cfg.saturation_fraction:
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

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "HealthMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
    """Remove (and close) the active monitor."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
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


def quiesce_forked() -> None:
    """Drop a monitor inherited across ``fork`` without closing it.

    An executor worker inherits the parent's monitor — including its
    open ``alerts.jsonl`` handle, whose file offset is shared with the
    parent.  The child must simply forget the monitor; closing it would
    flush through the shared offset.
    """
    global _ACTIVE
    _ACTIVE = None


def gradient_sq_norm(model) -> float:
    """Sum of squared gradient entries over all parameters (the
    trainers accumulate ``sqrt`` of the per-epoch max of this)."""
    total = 0.0
    for param in model.parameters():
        grad = param.grad
        if grad is not None:
            total += float(np.sum(np.square(grad)))
    return total
