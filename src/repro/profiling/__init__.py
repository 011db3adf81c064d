"""Simulation-time and memory profiling (paper Section V / Fig. 3)."""

from .memory import GraphMemoryMeter, traced_peak_bytes
from .timing import TimingResult, time_callable

__all__ = [
    "GraphMemoryMeter",
    "TimingResult",
    "time_callable",
    "traced_peak_bytes",
]
