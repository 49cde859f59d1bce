"""Host-speed probe: every timing the benchmark reports is scaled by it.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within minutes (other tenants, frequency changes); CPU time drifts alike,
so neither wall-clock nor CPU time of identical code repeats between runs.
The probe times a fixed pure-Python kernel in short bursts between requests,
never while a request runs, and a request's time is scaled by

    REFERENCE_S / median(kernel times of the bursts just before and just after it)

so a figure reads as "seconds on a host where the kernel takes REFERENCE_S".
REFERENCE_S is the kernel's time on the machine the baseline was taken on
when it was idle, so the scaled figures stay close to wall-clock ones there.
A change to the program moves the scaled figures exactly as it moves the
wall-clock ones; the probe itself runs only benchmark code.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# seconds one kernel call takes on the baseline machine (2-core x86-64 VM,
# Python 3.11.7) when idle
REFERENCE_S = 0.0049
BURST = 3  # kernel calls per burst; a request is scaled by two bursts
EVERY_S = 0.25  # at most one burst per this many seconds: probes take ~5 % of a run


def kernel() -> int:
    """Fixed integer loop of about 5 ms: interpreter dispatch and small ints."""
    total = 0
    for i in range(60000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Bursts of kernel timings, taken between requests, and the scale they give."""

    def __init__(self):
        self.ends: list[float] = []  # end time of each kernel call, increasing
        self.times: list[float] = []  # its duration
        self._last = float("-inf")

    def sample(self) -> None:
        """Time one burst now."""
        for _ in range(BURST):
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            self.ends.append(t1)
            self.times.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Time a burst if none was taken in the last EVERY_S seconds."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def overhead_s(self) -> float:
        return sum(self.times)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the local kernel time around ``[start, end]``.

        Uses the last burst that ended by ``start`` and the first that began
        after ``end``; call ``sample`` before the first and after the last
        timed interval.
        """
        before = bisect_right(self.ends, start)
        after = bisect_left(self.ends, end)
        local = self.times[max(0, before - BURST) : before] + self.times[after : after + BURST]
        if not local:
            raise RuntimeError("no speed sample around a timed interval")
        return REFERENCE_S / statistics.median(local)
