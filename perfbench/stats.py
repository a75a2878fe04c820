"""Order statistics for benchmark timings.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count.
Percentiles use the nearest-rank rule: the p-th percentile of n sorted
samples is the sample at rank ceil(p/100 * n). It is always one of the
samples, so it never exceeds the maximum, and it never decreases as p grows.
"""

import math
from typing import NamedTuple, Optional, Sequence

# Percentiles a tail is reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


class Summary(NamedTuple):
    median: float
    # Highest percentile of TAIL_LADDER with TAIL_MIN_BEYOND samples beyond
    # it, or None when there are too few samples for any.
    tail_pct: Optional[float]
    tail: Optional[float]
    count: int


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile `p` among `n` samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile `p` (0 < p <= 100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    xs = sorted(samples)
    return xs[_rank(p, len(xs)) - 1]


def beyond(p: float, n: int) -> int:
    """Samples ranked above the p-th percentile of `n` samples."""
    return n - _rank(p, n)


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle two when even)."""
    if not samples:
        raise ValueError("median of an empty sample")
    xs = sorted(samples)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def summarize(samples: Sequence[float]) -> Summary:
    """Median, highest reportable tail percentile and count of a sample."""
    n = len(samples)
    tail_pct = None
    for p in TAIL_LADDER:
        if beyond(p, n) >= TAIL_MIN_BEYOND:
            tail_pct = p
    tail = percentile(samples, tail_pct) if tail_pct is not None else None
    return Summary(median(samples), tail_pct, tail, n)
