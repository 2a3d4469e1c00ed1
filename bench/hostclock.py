"""Timings at a fixed reference speed of the host.

The benchmark runs on a few cores of a shared machine whose speed drifts: a
fixed loop of pure Python takes from 0.25 s to 0.43 s within a minute, and
its CPU time equals its wall time, so the drift is the host, not preemption.
No statistic over one run removes a slowdown that lasts longer than the run.

`HostClock` measures the host's speed while the work runs.  Every PERIOD_S
of wall time a SIGALRM handler, in the benchmark's own thread, runs a fixed
reference kernel of interpreter work twice and records the speed of the
second pass, REF_KERNEL_S over its time.  The time of an interval is its wall time minus the
kernel's, multiplied by the mean speed of the ticks inside it: the seconds
the same work would take on a host where the kernel takes REF_KERNEL_S.  The
kernel does not touch moma, so a change to moma moves these seconds as it
moves wall time on a steady host.  The correction is approximate: moma's
mix of interpreter and numpy work slows down with the host by about, not
exactly, as much as the kernel does.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.02
# The unit: the kernel's time at the median speed of the 2-vCPU host the
# benchmark was defined on, so that reference seconds are close to wall
# seconds there.  Changing it rescales every timing, so it stays fixed.
REF_KERNEL_S = 0.00045

_INTS = list(range(4096))
_FLOATS = [float(i * 7919 % 1000) for i in range(600)]


def reference_kernel() -> int:
    """Fixed interpreter work: integer arithmetic over a list, then building,
    scanning and sorting a small dict with tuple keys."""
    s = 0
    for i in range(2000):
        s += _INTS[i * 97 & 4095] * i % 13
    d = {}
    for i, x in enumerate(_FLOATS):
        d[i % 50, i] = x * 0.5
    return s + len(sorted(d.values())) + sum(1 for k in d if k[0] == 3)


class HostClock:
    """Readings are (wall, kernel seconds, summed tick speed, ticks).  A clock
    that was never started has no ticks and reads plain wall seconds."""

    def __init__(self):
        self.kernel_s = 0.0
        self.speed_sum = 0.0
        self.ticks = 0

    def _tick(self, signum, frame) -> None:
        # The first pass refills the caches moma's work left cold, so that
        # the timed second pass measures the host and not moma's memory use.
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self.kernel_s += t2 - t0
        self.speed_sum += REF_KERNEL_S / (t2 - t1)
        self.ticks += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def read(self) -> tuple[float, float, float, int]:
        return time.perf_counter(), self.kernel_s, self.speed_sum, self.ticks

    def seconds(self, a, b) -> float:
        """Reference-speed seconds of the work between readings a and b.  An
        interval without ticks takes the mean speed of all ticks so far."""
        work = (b[0] - a[0]) - (b[1] - a[1])
        if b[3] > a[3]:
            return work * (b[2] - a[2]) / (b[3] - a[3])
        return work * (b[2] / b[3] if b[3] else 1.0)

    @staticmethod
    def wall(a, b) -> float:
        return b[0] - a[0]

    def speed(self) -> float:
        """Mean speed of every tick so far, 1.0 at the reference."""
        return self.speed_sum / self.ticks if self.ticks else 1.0
