"""Latency/throughput and load accounting for the serving layers.

:func:`summarize` condenses a sample of per-statement wall-clock durations
into the aggregate the reports print (mean / p50 / p95 / p99 / max and total
statement count).

A :class:`LoadGauge` tracks *instantaneous* load — requests in flight and
requests queued, with their peaks — for the network tier's admission
controller (:mod:`repro.server.admission`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = fraction * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    weight = rank - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate view of a latency sample (all values in seconds)."""

    count: int
    total: float
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    def describe(self, unit_scale: float = 1e3, unit: str = "ms") -> str:
        return (
            f"{self.count} statements, mean {self.mean * unit_scale:.2f}{unit}, "
            f"p50 {self.p50 * unit_scale:.2f}{unit}, p95 {self.p95 * unit_scale:.2f}{unit}, "
            f"p99 {self.p99 * unit_scale:.2f}{unit}, max {self.max * unit_scale:.2f}{unit}"
        )


def summarize(latencies: list[float]) -> LatencySummary:
    if not latencies:
        return LatencySummary(
            count=0, total=0.0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0
        )
    ordered = sorted(latencies)
    total = sum(ordered)
    return LatencySummary(
        count=len(ordered),
        total=total,
        mean=total / len(ordered),
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
        max=ordered[-1],
    )


@dataclass(frozen=True)
class LoadSnapshot:
    """Point-in-time load reading of a :class:`LoadGauge`."""

    in_flight: int
    queued: int
    peak_in_flight: int
    peak_queued: int

    def describe(self) -> str:
        return (
            f"in-flight {self.in_flight} (peak {self.peak_in_flight}), "
            f"queued {self.queued} (peak {self.peak_queued})"
        )


class LoadGauge:
    """Thread-safe in-flight/queue-depth gauge with peak tracking.

    ``enqueue``/``dequeue`` bracket the time a request waits for capacity;
    ``enter``/``exit`` bracket its actual execution.  The asyncio server's
    admission controller updates one of these per request.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._in_flight = 0
        self._queued = 0
        self._peak_in_flight = 0
        self._peak_queued = 0

    def enqueue(self) -> None:
        """A request started waiting for an execution slot."""
        with self._lock:
            self._queued += 1
            self._peak_queued = max(self._peak_queued, self._queued)

    def dequeue(self) -> None:
        """A waiting request left the queue (admitted or shed)."""
        with self._lock:
            self._queued -= 1

    def enter(self) -> None:
        """A request began executing."""
        with self._lock:
            self._in_flight += 1
            self._peak_in_flight = max(self._peak_in_flight, self._in_flight)

    def exit(self) -> None:
        """A request finished executing (successfully or not)."""
        with self._lock:
            self._in_flight -= 1

    def snapshot(self) -> LoadSnapshot:
        """A consistent reading of the current and peak load."""
        with self._lock:
            return LoadSnapshot(
                in_flight=self._in_flight,
                queued=self._queued,
                peak_in_flight=self._peak_in_flight,
                peak_queued=self._peak_queued,
            )

