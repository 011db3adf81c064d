"""Observability: structured logging, tracing spans, metrics, monitors.

Disabled by default — until :func:`configure` (or ``with observe(...)``)
starts a run, every instrument in the library short-circuits on a single
boolean check.  One observed run writes three artefacts into its run
directory:

- ``events.jsonl``  — structured log records and captured CLI output;
- ``trace.jsonl``   — closed tracing spans (a nested timeline);
- ``metrics.json``  — counters / gauges / histograms snapshot;
- ``drift.jsonl``   — per-layer conversion-drift series
  (:class:`DriftMonitor`), when a conversion was instrumented;
- ``profile.jsonl`` / ``profile_summary.json`` — op-level performance
  profile (:class:`OpProfiler`), when ``configure(profile=True)``.

Quick start::

    from repro.obs import observe, trace, metrics, get_logger

    with observe("results/run_1", arch="vgg16"):
        with trace.span("convert", timesteps=2):
            ...
        metrics.observe("snn.spike_rate", 0.12, layer=3)
        get_logger("demo").info("done")

then ``python -m repro.obs.report results/run_1`` renders the run.
"""

from . import health, metrics, profile, trace
from .core import (
    configure,
    flush_metrics,
    is_enabled,
    observe,
    shutdown,
    state,
)
from .drift import DriftMonitor
from .health import HealthConfig, HealthMonitor
from .instruments import (
    StepMonitor,
    measure_inference_memory,
    measure_training_memory,
    monitored,
    record_dispatch_profile,
    record_energy_profile,
    record_spike_profile,
)
from .logging import Logger, console, get_logger, set_console_level
from .metrics import MetricsRegistry, get_registry, reset_registry
from .profile import OpProfiler
from .registry import BaselineError, RunRegistry


def load_run(run_dir):
    """Lazy alias for :func:`repro.obs.report.load_run` (kept out of the
    eager imports so ``python -m repro.obs.report`` stays warning-free)."""
    from .report import load_run as _load_run

    return _load_run(run_dir)


def render_report(data):
    """Lazy alias for :func:`repro.obs.report.render_report`."""
    from .report import render_report as _render_report

    return _render_report(data)


def run_to_json(data):
    """Lazy alias for :func:`repro.obs.report.run_to_json`."""
    from .report import run_to_json as _run_to_json

    return _run_to_json(data)


def diff_runs(baseline, candidate, **kwargs):
    """Lazy alias for :func:`repro.obs.diff.diff_runs` (the diff module
    imports :mod:`repro.obs.report`, kept out of the eager imports for
    the same reason as :func:`load_run`)."""
    from .diff import diff_runs as _diff_runs

    return _diff_runs(baseline, candidate, **kwargs)


def diff_run_dirs(baseline_dir, candidate_dir, **kwargs):
    """Lazy alias for :func:`repro.obs.diff.diff_run_dirs`."""
    from .diff import diff_run_dirs as _diff_run_dirs

    return _diff_run_dirs(baseline_dir, candidate_dir, **kwargs)


__all__ = [
    "BaselineError",
    "DriftMonitor",
    "HealthConfig",
    "HealthMonitor",
    "Logger",
    "MetricsRegistry",
    "OpProfiler",
    "RunRegistry",
    "StepMonitor",
    "configure",
    "console",
    "diff_run_dirs",
    "diff_runs",
    "flush_metrics",
    "get_logger",
    "get_registry",
    "health",
    "is_enabled",
    "load_run",
    "measure_inference_memory",
    "measure_training_memory",
    "metrics",
    "monitored",
    "observe",
    "profile",
    "record_dispatch_profile",
    "record_energy_profile",
    "record_spike_profile",
    "render_report",
    "reset_registry",
    "run_to_json",
    "set_console_level",
    "shutdown",
    "state",
    "trace",
]
