"""Order statistics shared by the harness and the A/B comparison.

Quartiles use :func:`statistics.quantiles` with its default (exclusive)
method, the same call the spread check of ``BENCHMARK.json`` is defined by.
"""

from __future__ import annotations

import math
import statistics

#: Tail percentiles considered for a timing, highest first, in per mille
#: (integers, so "samples beyond" is counted exactly).
TAIL_PERMILLE = ((999, "p999"), (990, "p99"), (900, "p90"))

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def nearest_rank(values, permille: int) -> float:
    """The nearest-rank percentile of ``values`` at ``permille`` / 1000."""
    ordered = sorted(float(v) for v in values)
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1]


def timing_summary(values) -> dict:
    """Median, sample count and the highest tail percentile with at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it (none for small samples).

    Returns ``{"p50": ..., "n": ...}`` plus e.g. ``"p90"`` when ``n >= 100``.
    """
    values = list(values)
    summary: dict = {"n": len(values)}
    if not values:
        return summary
    summary["p50"] = statistics.median(values)
    for permille, label in TAIL_PERMILLE:
        if len(values) * (1000 - permille) >= MIN_TAIL_SAMPLES * 1000:
            summary[label] = nearest_rank(values, permille)
            break
    return summary
