"""Fault-event telemetry: counters, per-layer gauges, ``faults.jsonl``.

Mirrors the conversion-drift channel (:mod:`repro.obs.drift`): one
:class:`FaultTelemetry` belongs to one injection session and records

- a counter per fault type in the metrics registry
  (``faults.weights_pruned``, ``faults.spikes_dropped``, ...),
- per-layer gauges for the parameter perturbations
  (``faults.threshold_jitter{layer=i}``, ...),
- one JSON line per fault event in the run directory's
  ``faults.jsonl``, alongside ``drift.jsonl``.

Metrics follow the library-wide contract: the process-global registry
is only written while observability is enabled; an explicitly supplied
registry always records.  The in-memory ``records`` list is always
populated (bounded), so tests and the sweep driver can inspect a
session without configuring a run.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, List, Optional

from ..obs import metrics as obs_metrics
from ..obs.core import _STATE, is_enabled
from ..obs.metrics import MetricsRegistry

FAULTS_FILENAME = "faults.jsonl"

_MAX_RECORDS = 65_536


class FaultTelemetry:
    """Sink for one fault-injection session's events.

    Parameters
    ----------
    registry:
        Metrics registry to write into (default: the global one, which
        only records while observability is enabled).
    run_dir:
        Directory for ``faults.jsonl`` (default: the active observed
        run's directory, if any; ``None`` keeps records in memory only).
    prefix:
        Metric-name prefix (default ``faults``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        run_dir: Optional[str] = None,
        prefix: str = "faults",
    ) -> None:
        self.prefix = prefix
        self.registry = registry if registry is not None else obs_metrics.get_registry()
        self._global_registry = registry is None
        self.records: List[dict] = []
        if run_dir is None:
            run_dir = _STATE.run_dir
        self.run_dir = run_dir
        self._fp: Optional[IO[str]] = None
        if run_dir is not None:
            os.makedirs(run_dir, exist_ok=True)
            self._fp = open(
                os.path.join(run_dir, FAULTS_FILENAME), "a", encoding="utf-8"
            )

    # ------------------------------------------------------------------
    def _record_metrics(self) -> bool:
        return not self._global_registry or is_enabled()

    def record(self, fault: str, **fields) -> dict:
        """Log one fault event (one JSONL line; counters updated by the
        callers through :meth:`count` / :meth:`gauge`)."""
        record = {"kind": "fault", "ts": time.time(), "fault": fault, **fields}
        if len(self.records) < _MAX_RECORDS:
            self.records.append(record)
        if self._fp is not None:
            self._fp.write(json.dumps(record) + "\n")
            self._fp.flush()
        return record

    def count(self, fault_type: str, amount: float, **labels) -> None:
        """Bump the per-fault-type counter (``faults.<fault_type>``)."""
        if amount and self._record_metrics():
            self.registry.inc(f"{self.prefix}.{fault_type}", amount, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a per-layer gauge (``faults.<name>{layer=i}``)."""
        if self._record_metrics():
            self.registry.set_gauge(f"{self.prefix}.{name}", value, **labels)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "FaultTelemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
