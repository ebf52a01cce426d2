"""Small statistics helpers shared by the benchmark scripts."""

from __future__ import annotations

import math
import statistics


def quantile(values, q: float) -> float:
    """Linearly interpolated quantile (q in [0, 1]) of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sequence")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values) -> dict[str, float]:
    """Median, first and third quartile, and sample count."""
    xs = list(values)
    return {
        "median": statistics.median(xs),
        "q1": quantile(xs, 0.25),
        "q3": quantile(xs, 0.75),
        "n": len(xs),
    }


def weighted_median(pairs) -> float:
    """Median of values given as (value, weight) pairs with whole weights."""
    expanded = [v for v, w in pairs for _ in range(int(w))]
    return statistics.median(expanded)
