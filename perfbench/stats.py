"""Percentiles and the tail rule the benchmark reports latency with."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100) by linear interpolation between order
    statistics, as `statistics.quantiles(method="inclusive")` places them."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def tail_percentile(n: int, limit: int = 90, beyond: int = 10) -> int | None:
    """The highest whole percentile, at most `limit`, that leaves at least
    `beyond` of `n` samples above it; None when n is too small."""
    if n <= beyond:
        return None
    return min(limit, math.floor(100 * (n - beyond) / n))


def samples_beyond(n: int, q: float) -> int:
    """How many of `n` samples lie above the q-th percentile."""
    return n - math.ceil(q * n / 100.0)
