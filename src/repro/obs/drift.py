"""Conversion-drift monitoring: per-layer DNN↔SNN gap as time series.

The paper's error model (Eqs. 6-7) budgets conversion quality layer by
layer; :func:`repro.conversion.diagnose_conversion` computes that budget
once.  :class:`DriftMonitor` turns it into telemetry: every call to
:meth:`snapshot` re-diagnoses the converted network against the source
DNN on a pinned evaluation batch and records, per layer,

- the predicted gap ``Delta_{alpha beta}`` and the skew indicators
  ``K(mu)`` / ``h(T, mu)`` from the analytical model, and
- the *measured* mean output gap on real data,

as gauges in the metrics registry (``conversion.drift.*{layer=i}``) and
as one JSONL record per layer in the run directory's ``drift.jsonl`` —
both only while an observed run is active; the in-memory
``snapshots`` list is always kept.
Snapshots are labelled with a phase (``post_conversion``,
``post_calibration``, ``epoch``...) and a monotonically increasing
snapshot index, so calibration and SGL fine-tuning leave a per-layer
drift trajectory that ``repro.obs.report`` renders as the
"Conversion drift" section.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Tuple

import numpy as np

from . import core, trace
from . import metrics as obs_metrics

DRIFT_FILENAME = "drift.jsonl"


class DriftMonitor:
    """Records per-layer conversion drift across a run.

    Parameters
    ----------
    conversion:
        A :class:`repro.conversion.ConversionResult` (stats+specs+snn).
    model:
        The source DNN the SNN was converted from.
    batches:
        Evaluation batches ``(images, labels)``; the first one is pinned,
        so every snapshot diagnoses against the same data.
    """

    def __init__(
        self,
        conversion,
        model,
        batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.conversion = conversion
        self.model = model
        self.snapshots: List[dict] = []
        self._snapshot_index = 0
        first = next(iter(batches), None)
        if first is None:
            raise ValueError("no evaluation batches provided")
        self._images = np.array(first[0])
        self._labels = np.zeros(len(self._images), dtype=int)

    # ------------------------------------------------------------------
    def snapshot(self, phase: str, **fields) -> List:
        """Diagnose the conversion now; record one drift point per layer.

        Returns the underlying :class:`LayerErrorReport` list.  Extra
        ``fields`` (e.g. ``epoch=3``) are merged into every JSONL record
        of this snapshot.
        """
        from ..conversion.diagnostics import diagnose_conversion

        with trace.span("conversion.drift.snapshot", phase=phase):
            reports = diagnose_conversion(
                self.conversion,
                self.model,
                [(self._images, self._labels)],
                max_batches=1,
            )
        index = self._snapshot_index
        self._snapshot_index += 1
        now = time.time()
        for report in reports:
            record = {
                "kind": "drift",
                "ts": now,
                "phase": phase,
                "snapshot": index,
                **fields,
                **report.as_dict(),
            }
            self.snapshots.append(record)
            core.append(DRIFT_FILENAME, record)
            for name in ("predicted_gap", "measured_gap", "k_mu", "h_t_mu"):
                obs_metrics.gauge(
                    f"conversion.drift.{name}", getattr(report, name),
                    layer=report.layer,
                )
        return reports

    def worst(self, phase: Optional[str] = None) -> Optional[dict]:
        """Latest-snapshot record with the largest ``|measured_gap|``.

        Restricted to ``phase`` when given, otherwise to the most recent
        snapshot index seen.
        """
        records = self.snapshots
        if phase is not None:
            records = [r for r in records if r["phase"] == phase]
        if not records:
            return None
        latest = max(r["snapshot"] for r in records)
        records = [r for r in records if r["snapshot"] == latest]
        return max(records, key=lambda r: abs(r["measured_gap"]))
