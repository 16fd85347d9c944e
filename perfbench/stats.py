"""Small statistics helpers shared by the workloads and the self-tests.

Percentiles use the nearest-rank definition on the sorted samples, so a
reported percentile is always one of the measured values.  A tail
percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it; otherwise the highest percentile of :data:`TAIL_LADDER` that has
them is reported instead.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Optional, Sequence

#: samples that must lie strictly beyond a percentile for it to be reported
MIN_BEYOND = 10

#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``pct``."""
    rank = max(1, math.ceil(pct / 100.0 * count))
    return count - rank


def tail_percentile(count: int, wanted: float = 99.0) -> Optional[float]:
    """The highest percentile ``<= wanted`` with ``MIN_BEYOND`` samples beyond.

    Returns ``None`` when not even the median qualifies (fewer than about
    twenty samples).
    """
    for pct in TAIL_LADDER:
        if pct <= wanted and samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    return statistics.median(values)


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name (letters, digits, ``_.-``)."""
    return bool(METRIC_NAME.match(name))
