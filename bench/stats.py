"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math

TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.5) + tuple(range(99, 49, -1))


def nearest_rank(sorted_values, p: float):
    """(1-based rank, value) of the p-th percentile by the nearest-rank rule."""
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return k, sorted_values[k - 1]


def tail(values, beyond: int = TAIL_BEYOND):
    """The highest percentile that has at least `beyond` samples above its
    rank.  Returns (percentile, value, samples beyond).  With too few
    samples for any listed percentile this is the median, and the returned
    count says how many lie beyond it."""
    s = sorted(values)
    if not s:
        raise ValueError("tail of no samples")
    for p in TAIL_PERCENTILES:
        k, v = nearest_rank(s, p)
        if len(s) - k >= beyond:
            return p, v, len(s) - k
    k, v = nearest_rank(s, 50)
    return 50, v, len(s) - k
