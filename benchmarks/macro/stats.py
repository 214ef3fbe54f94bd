"""Percentiles and the rule for which tail percentile a sample supports."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

__all__ = ["percentile", "quartiles", "supported_percentile", "timing"]

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_percentile(n: int) -> Optional[int]:
    """The highest tail percentile with >= 10 of ``n`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= MIN_SAMPLES_BEYOND:
            return p
    return None


def timing(values_ms: Sequence[float]) -> Dict[str, object]:
    """Summary of one latency sample: count, p50/p95/p99, supported tail."""
    return {
        "n": len(values_ms),
        "p50": percentile(values_ms, 50),
        "p95": percentile(values_ms, 95),
        "p99": percentile(values_ms, 99),
        "supported_tail": supported_percentile(len(values_ms)),
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of a metric's values across runs."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3}
