"""Order statistics for the benchmark: medians, supported percentiles, spread."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when a workload's nominal one is not
#: supported by the sample it collected.
LADDER = (99, 95, 90, 75)


class UnsupportedPercentile(ValueError):
    """The sample is too small to report the requested percentile."""


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p < 100``).

    Refuses any percentile above the median with fewer than
    :data:`MIN_BEYOND` samples beyond it: the p99 of 300 samples is the
    third-largest value, which is an anecdote, not a tail.  The median
    is always allowed (it is how repeated passes are summarised).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise UnsupportedPercentile("no samples")
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    rank = max(1, math.ceil(p / 100.0 * n))
    if p > 50 and n - rank < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{p:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return float(ordered[rank - 1])


def supported_tail(values, nominal: int) -> tuple[int, float]:
    """``(p, value)`` for the highest ladder percentile ``<= nominal``
    that the sample supports; falls back to ``(50, median(values))``."""
    for p in LADDER:
        if 50 < p <= nominal:
            try:
                return p, percentile(values, p)
            except UnsupportedPercentile:
                continue
    return 50, median(values)


def iqr(values) -> float:
    """Distance between the first and the third quartile (needs >= 2)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (needs >= 2)."""
    mid = median(values)
    return iqr(values) / abs(mid) if mid else math.inf
