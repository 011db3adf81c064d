"""Observability: structured logging, tracing spans, metrics, monitors.

Disabled by default — until :func:`configure` (or ``with observe(...)``)
starts a run, every instrument in the library short-circuits on a single
boolean check.  One observed run writes these artefacts into its run
directory, every JSONL file through one lazy appender
(:func:`repro.obs.core.append`):

- ``events.jsonl``  — structured log records and captured CLI output;
- ``trace.jsonl``   — closed tracing spans (a nested timeline);
- ``metrics.json``  — counters / gauges / histograms snapshot;
- ``drift.jsonl``   — per-layer conversion-drift series
  (:class:`DriftMonitor`), when a conversion was instrumented;
- ``alerts.jsonl``  — training-health heartbeats and alerts
  (:class:`HealthMonitor`);
- ``faults.jsonl``  — fault-injection events
  (:class:`repro.faults.FaultTelemetry`);
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

import os

from . import core, health, metrics, profile, trace
from .core import (
    configure,
    flush_metrics,
    is_enabled,
    observe,
    shutdown,
    state,
)
from .drift import DriftMonitor
from .health import HealthMonitor
from .instruments import (
    StepMonitor,
    monitored,
    record_energy_profile,
    record_spike_profile,
)
from .logging import Logger, console, get_logger, set_console_level
from .metrics import MetricsRegistry, get_registry, reset_registry
from .profile import OpProfiler
from .registry import BaselineError, RunRegistry


def quiesce_forked() -> None:
    """Cut a worker process off from the observed run it inherited.

    A worker must never write through the parent's JSONL handles (their
    file offsets are shared after ``fork``), register runs, or reach the
    parent's health monitor or profiler; every handle is forgotten, not
    closed, since closing would flush through the shared offset
    (:func:`repro.obs.core.forget_handles`).  Metrics get a fresh
    registry, so no lock inherited mid-hold can deadlock the worker.
    """
    os.environ["REPRO_RUNS_DISABLE"] = "1"
    state().enabled = False
    core.forget_handles()
    reset_registry()
    trace.reset(counter=True)
    health.uninstall()
    profile.quiesce_forked()


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
    "metrics",
    "monitored",
    "observe",
    "profile",
    "quiesce_forked",
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
