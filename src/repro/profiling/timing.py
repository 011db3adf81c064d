"""Wall-clock timing utilities (paper Fig. 3a).

The paper reports training and inference time per epoch for its 2/3-step
SNNs against the 5-step hybrid baseline.  On this substrate the same
quantities are measured by timing real epochs; the expected *shape* —
time growing ~linearly with ``T`` because every step replays the whole
layer pipeline — is hardware-independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List


@dataclass
class TimingResult:
    """Statistics of repeated timings, in seconds."""

    samples: List[float]

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def median(self) -> float:
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    @property
    def std(self) -> float:
        """Population standard deviation of the samples."""
        mean = self.mean
        return math.sqrt(
            sum((s - mean) ** 2 for s in self.samples) / len(self.samples)
        )

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples)

    def percentile(self, q: float) -> float:
        """Linearly interpolated percentile ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if not self.samples:
            raise ValueError("no timing samples recorded")
        ordered = sorted(self.samples)
        position = (len(ordered) - 1) * q / 100.0
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return ordered[low]
        weight = position - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    def summary(self) -> dict:
        """JSON-ready distribution summary (what the bench files store)."""
        return {
            "repeats": len(self.samples),
            "mean_s": self.mean,
            "median_s": self.median,
            "std_s": self.std,
            "min_s": self.minimum,
            "max_s": self.maximum,
            "p95_s": self.p95,
        }


def time_callable(fn: Callable[[], None], repeats: int = 3, warmup: int = 1) -> TimingResult:
    """Time ``fn`` ``repeats`` times after ``warmup`` discarded runs."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return TimingResult(samples=samples)

