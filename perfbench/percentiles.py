"""Percentiles that refuse to report a tail the samples cannot support."""

from __future__ import annotations

import math

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def min_samples(q: int) -> int:
    """Fewest samples for which percentile q is allowed."""
    if q <= 50:
        return 1
    return math.ceil(MIN_BEYOND * 100 / (100 - q))


def percentile(samples: list[float], q: int) -> float:
    """Percentile q (integer percent) with linear interpolation.

    Levels above the median raise ValueError unless at least
    MIN_BEYOND samples lie beyond them.
    """
    n = len(samples)
    if not 0 < q < 100:
        raise ValueError(f"percentile level must be in (0, 100), got {q}")
    if n < min_samples(q):
        raise ValueError(
            f"p{q} needs {min_samples(q)} samples for {MIN_BEYOND} beyond it, got {n}"
        )
    s = sorted(samples)
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)
