"""Fault injection: hardware-realistic fault models for DNNs and SNNs.

The deployment substrate the paper targets (neuromorphic/edge silicon)
quantises weights, loses synapses, mismatches thresholds and drops
spike packets.  This package models those failure modes declaratively
(:class:`FaultSpec`), realises them seedably and reversibly inside a
context manager (:func:`inject_faults`), and reports every injected
fault through :mod:`repro.obs` (:class:`FaultTelemetry`).

Quick start::

    from repro.faults import FaultSpec, inject_faults

    spec = FaultSpec.pruning(0.1, seed=7)      # drop 10% of synapses
    with inject_faults(snn, spec) as session:
        accuracy = evaluate_snn(snn, loader)   # faulted evaluation
    # snn is restored bit-for-bit here
    session.summary()                          # realised fault counts

Sweeps over fault rates live in :mod:`repro.experiments.fault_sweep`;
``make smoke`` runs the deterministic end-to-end checks (``pytest -m smoke``).
"""

from .chaos import ChaosSpec
from .injector import FaultInjector, inject_faults
from .spec import FaultSpec, NeuronFaults, TransmissionFaults, WeightFaults
from .telemetry import FAULTS_FILENAME, FaultTelemetry

__all__ = [
    "FAULTS_FILENAME",
    "ChaosSpec",
    "FaultInjector",
    "FaultSpec",
    "FaultTelemetry",
    "NeuronFaults",
    "TransmissionFaults",
    "WeightFaults",
    "inject_faults",
]
