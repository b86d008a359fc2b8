"""Host speed, measured with a fixed kernel that does not use clarkspectra.

On a shared virtual machine the speed of the host can change by more than
half in phases of seconds to a minute, for all work alike: process CPU time
swings with wall time, so it does not help. The worker therefore runs the
kernel below at a fixed period while it measures (from a SIGALRM handler,
in the measuring thread, between two bytecodes of whatever runs) and scales
each request's time by REFERENCE_S / median time of the kernel runs near
that request (those within MARGIN_S of it). A time so scaled is
the time the same work would take on a host where the kernel takes
REFERENCE_S. The kernel's own time is taken out of every request it
interrupts. The kernel mixes what the package does per evaluation: complex
scalar arithmetic and small numpy linear algebra.
"""

import bisect
import cmath
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1.5e-3   # the kernel's median time on the 2-vCPU Xeon host of the README
PERIOD_S = 0.05
MARGIN_S = 0.5

_M = np.array([[1.0, 0.2j], [0.1, 1.0 + 0.3j]])


def kernel(n=60):
    z = 0.3 + 0.4j
    acc = 0.0
    for _ in range(n):
        z = cmath.exp(-z) * 0.5 + 0.1j
        b = np.array([[z, 0.1], [0.2j, z.conjugate()]])
        x = np.linalg.solve(_M - 0.1 * b, b)
        acc += np.linalg.svd(x, compute_uv=False)[-1] + abs(z)
    return acc


class HostSpeed:
    """Kernel runs every PERIOD_S of wall time between start() and stop():
    their start times and durations; spent is the wall time they took."""

    def __init__(self):
        self.times = []
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t
        self.times.append(t)
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start=None, end=None):
        """Median kernel time over REFERENCE_S, above 1 on a slower host:
        of the runs within MARGIN_S of [start, end], or of all runs."""
        near = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.times, start - MARGIN_S)
            hi = bisect.bisect_right(self.times, end + MARGIN_S)
            near = self.samples[lo:hi] or near
        return statistics.median(near) / REFERENCE_S
