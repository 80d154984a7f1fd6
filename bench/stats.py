"""Small-sample statistics shared by the harness, the tracer and compare.py."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence, Tuple

#: Percentiles the harness will report, lowest first.
LADDER = (50, 75, 90, 95, 99)

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values`` (any order)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(samples: int) -> int:
    """The highest ladder percentile with ten samples beyond it.

    Falls back to the median when the sample supports nothing higher: a
    20-sample run has ten values above its p50 and only five above its p75.
    """
    best = LADDER[0]
    for q in LADDER:
        if samples * (100 - q) / 100.0 >= SAMPLES_BEYOND:
            best = q
    return best


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else math.inf


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total
