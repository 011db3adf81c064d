"""Simulation-time and memory profiling (paper Section V / Fig. 3).

The memory meters also serve as measurement backends of the
observability layer: ``repro.obs.measure_training_memory`` /
``measure_inference_memory`` wrap them, recording their results as
metrics and spans.
"""

from .memory import (
    GraphMemoryMeter,
    MemoryReport,
    inference_memory,
    parameter_bytes,
    training_memory,
)
from .timing import EpochTimeComparison, TimingResult, time_callable

__all__ = [
    "EpochTimeComparison",
    "GraphMemoryMeter",
    "MemoryReport",
    "TimingResult",
    "inference_memory",
    "parameter_bytes",
    "time_callable",
    "training_memory",
]
