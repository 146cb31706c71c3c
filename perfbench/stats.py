"""Latency samples and the tail-latency rule."""

from __future__ import annotations

import statistics

# candidate tail percentiles, in tenths of a percent
LADDER = (500, 900, 950, 990, 999)
MIN_BEYOND = 10
# samples each key contributes when keyed samples are pooled
PER_KEY = 100


def latencies(samples):
    """Latency samples from [key, seconds] pairs.

    Samples with key None are used as they are.  Samples that share another
    key are pooled into their median, and every key contributes PER_KEY
    copies of it, so each key weighs the same however many units it has.
    """
    out = [s for key, s in samples if key is None]
    pooled = {}
    for key, s in samples:
        if key is not None:
            pooled.setdefault(key, []).append(s)
    for _, ss in sorted(pooled.items()):
        out += [statistics.median(ss)] * PER_KEY
    return out


def tail(samples):
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it.

    Nearest-rank percentiles.  Returns (percentile, value, samples beyond), or
    None when even the median has fewer than MIN_BEYOND samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for q in LADDER:
        rank = -(-q * n // 1000)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (q / 10, xs[rank - 1], n - rank)
    return best
