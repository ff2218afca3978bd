"""Summary statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, with the sample count, so a tail
figure is never read off two or three samples.
"""
import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def nearest_rank(sorted_values, p: float) -> tuple[int, float]:
    """1-based nearest rank of percentile ``p`` and the value at it."""
    # the epsilon keeps 90 % of 100 at rank 90 despite float rounding
    rank = max(1, math.ceil(p * len(sorted_values) / 100.0 - 1e-9))
    return rank, sorted_values[rank - 1]


def tail_percentile(values):
    """``(p, value, n)`` for the highest percentile in ``TAIL_LADDER``
    with at least ``MIN_BEYOND`` samples strictly above its rank, else
    ``None``."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        if n == 0:
            break
        rank, value = nearest_rank(xs, p)
        if n - rank >= MIN_BEYOND:
            return p, value, n
    return None


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf
