"""Fault-event telemetry: counters, per-layer gauges, ``faults.jsonl``.

Mirrors the conversion-drift channel (:mod:`repro.obs.drift`): one
:class:`FaultTelemetry` belongs to one injection session and records

- a counter per fault type in the metrics registry
  (``faults.weights_pruned``, ``faults.spikes_dropped``, ...),
- per-layer gauges for the parameter perturbations
  (``faults.threshold_jitter{layer=i}``, ...),
- one JSON line per fault event in the run directory's
  ``faults.jsonl``, alongside ``drift.jsonl``.

Metrics and the JSONL file are written only while an observed run is
active (through :mod:`repro.obs.metrics` and :func:`repro.obs.core.append`).
The in-memory ``records`` list is always populated (bounded), so tests
and the sweep driver can inspect a session without configuring a run.
"""

from __future__ import annotations

import time
from typing import List

from ..obs import core
from ..obs import metrics as obs_metrics

FAULTS_FILENAME = "faults.jsonl"

_MAX_RECORDS = 65_536


class FaultTelemetry:
    """Sink for one fault-injection session's events."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def record(self, fault: str, **fields) -> dict:
        """Log one fault event (one JSONL line; counters updated by the
        callers through :meth:`count` / :meth:`gauge`)."""
        record = {"kind": "fault", "ts": time.time(), "fault": fault, **fields}
        if len(self.records) < _MAX_RECORDS:
            self.records.append(record)
        core.append(FAULTS_FILENAME, record)
        return record

    def count(self, fault_type: str, amount: float, **labels) -> None:
        """Bump the per-fault-type counter (``faults.<fault_type>``)."""
        if amount:
            obs_metrics.inc(f"faults.{fault_type}", amount, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a per-layer gauge (``faults.<name>{layer=i}``)."""
        obs_metrics.gauge(f"faults.{name}", value, **labels)
