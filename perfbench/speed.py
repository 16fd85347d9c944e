"""Host-speed normalisation of measured times.

The virtual machines this benchmark runs on change speed by up to half
again within seconds, with no steal time visible to the guest: the same
22-query pass takes 1.0 s in one moment and 1.6 s a few seconds later.
Every timed operation is therefore accompanied by a *probe*, a fixed
pure-Python loop, timed while nothing else runs: before each statement and
around each set-up, between the 1 s slices of a closed loop, and every
50 ms beside the mostly idle open loop.  A reported time is the measured
time scaled to a host on which the probe takes :data:`REFERENCE_S`::

    normalised = measured * REFERENCE_S / probe

Work that gets faster or slower in the program moves the normalised time
exactly as much as the measured one; the host's drift moves the probe and
the measured time together and cancels.  The raw times are printed next to
the normalised ones.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

#: the probe's time on the reference host (about this machine class's median)
REFERENCE_S = 0.002

#: loop iterations of one probe
PROBE_ITERATIONS = 20000


def probe() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - started


def best_probe(repeats: int = 2) -> float:
    """The fastest of ``repeats`` probes: robust to a single interruption."""
    return min(probe() for _ in range(repeats))


def factor(probe_seconds: float) -> float:
    """The multiplier that scales a measured time to the reference host."""
    return REFERENCE_S / probe_seconds


class ProbeLog:
    """Probes taken at known times; looks up the host speed around a moment.

    The speed at ``[start, end]`` is the fastest probe within
    :data:`WINDOW_S` of the interval: a probe delayed by the load generator's
    own threads reads slow, never fast.
    """

    WINDOW_S = 0.5

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probes: list[float] = []

    def record(self) -> None:
        seconds = probe()
        self.times.append(time.perf_counter())
        self.probes.append(seconds)

    def probe_at(self, start: float, end: float) -> float:
        low = bisect_left(self.times, start - self.WINDOW_S)
        high = bisect_right(self.times, end + self.WINDOW_S)
        window = self.probes[low:high]
        if not window:
            raise ValueError("no probe near the interval")
        return min(window)
