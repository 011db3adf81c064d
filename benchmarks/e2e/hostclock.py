"""A clock that runs at the host's speed.

The benchmark runs on shared virtual machines whose speed drifts.  On a
2-vCPU Xeon VM, one fixed Algorithm-1 search took 310 ms in some
stretches and 560 ms in others, each lasting seconds to minutes, with
process CPU time tracking wall time (the vCPU runs slower; it is not
descheduled).  Ten runs of one workload then spread 16% in median wall
time at 10 s a run (2 requests) and 19% at 25 s (4-6 requests), so no
run length the time budget allows averages the drift out.

:class:`HostClock` measures the drift while the program runs.  Every
``TICK_S`` of wall time a ``SIGALRM`` handler times a small fixed
reference kernel (NumPy reductions, a small matrix product and a Python
loop) in thread CPU time, and the clock advances by the wall time since
the previous tick times ``REFERENCE_S`` over the kernel's time.  A
stretch in which the host runs at half speed counts half, so the reading
is the time the program would have taken on a host whose reference
kernel takes ``REFERENCE_S``.  On the VM above, ten runs of a workload
spread 4-9% on this clock against 7-24% on the wall clock.  The
correction is partial: Algorithm-1 code slows down more than the kernel
does, so the workload that is mostly Algorithm 1 keeps the widest spread.

Thread CPU time, not wall time, times the kernel, so waiting for a core
(the fault sweep's workers keep both busy) is not read as a slower host.
The handler's own time is left out of the reading.  Processes the
program forks do not inherit the timer.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The reference kernel's time in the VM's fast stretches, so a quiet
# host reads close to wall time.
REFERENCE_S = 62e-6
TICK_S = 0.02

_VECTOR = np.linspace(0.0, 1.0, 101)
_MATRIX = np.random.default_rng(0).standard_normal((32, 64))


def reference_kernel() -> float:
    """Fixed work with the program's mix: small NumPy calls, a small
    matrix product and interpreted Python."""
    total = 0.0
    for k in range(6):
        total += float(((_VECTOR > 0.1 * k) * _VECTOR).sum())
        total += float((_MATRIX @ _MATRIX.T)[0, 0])
    count = 0
    for i in range(400):
        count += i * i
    return total + count


def time_reference() -> float:
    """Thread CPU seconds of one warm run of the reference kernel."""
    reference_kernel()
    started = time.thread_time()
    reference_kernel()
    return time.thread_time() - started


class HostClock:
    """Context manager; :meth:`now` reads the clock while it is open.

    Open it in the main thread: the handler is installed with
    :func:`signal.signal`.
    """

    def __init__(self, tick_s: float = TICK_S, probe=time_reference) -> None:
        self.tick_s = tick_s
        self.probe = probe
        self.ticks = 0
        # (reading at the last tick, wall time the tick ended, rate):
        # one tuple, replaced whole, so a read never mixes two ticks.
        self._state = (0.0, 0.0, 1.0)
        self._previous = None

    def __enter__(self) -> "HostClock":
        rate = REFERENCE_S / self.probe()
        self._state = (0.0, time.perf_counter(), rate)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        begun = time.perf_counter()
        reading, last, rate = self._state
        # The interval since the last tick runs at the rate measured
        # then, as now() extrapolated it, so readings never jump.
        reading += (begun - last) * rate
        rate = REFERENCE_S / self.probe()
        self.ticks += 1
        self._state = (reading, time.perf_counter(), rate)

    def now(self) -> float:
        reading, last, rate = self._state
        return reading + (time.perf_counter() - last) * rate
