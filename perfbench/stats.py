"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(times) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond it) at the highest percentile that
    still has at least TAIL_BEYOND jobs above it.

    With N sorted times that is the (N - TAIL_BEYOND)-th smallest, which is
    the 100 (N - TAIL_BEYOND) / N percentile.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} jobs, got {n}")
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, n - k


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles with n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
