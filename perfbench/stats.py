"""Order statistics used by the benchmark and its comparison script."""

import math
import statistics

# percentiles reported for latency samples, in increasing order
_TAIL_LEVELS = (50.0, 90.0, 99.0, 99.9)
# a tail percentile is only meaningful with this many samples beyond it
MIN_TAIL_SAMPLES = 10


def _rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples; the
    rounding keeps levels such as 99.9 from landing one rank high."""
    return max(math.ceil(round(p / 100.0 * n, 9)), 1)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile level must lie in (0, 100], got {p}")
    return xs[_rank(len(xs), p) - 1]


def samples_beyond(n, p):
    """Number of samples strictly above the nearest-rank p-th percentile
    of n distinct samples."""
    return n - _rank(n, p)


def highest_supported_percentile(n):
    """The highest level in _TAIL_LEVELS that keeps MIN_TAIL_SAMPLES
    samples beyond it, or None when even the median does not."""
    best = None
    for p in _TAIL_LEVELS:
        if samples_beyond(n, p) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def quartile_spread(values):
    """Interquartile distance over the median, as the acceptance rule
    computes it (``statistics.quantiles(values, n=4)``)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
