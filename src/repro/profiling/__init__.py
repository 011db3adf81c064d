"""Simulation-time and memory profiling (paper Section V / Fig. 3)."""

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
