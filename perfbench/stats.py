"""The benchmark's own arithmetic: tails, latency windows, interval unions, units.

Everything here is pure and small so ``perfbench/tests`` can pin it down
exactly.
"""

from __future__ import annotations

import numpy as np

#: Percentiles a tail may be reported at.  Using a fixed ladder (rather
#: than ``1 - 10/n`` exactly) keeps a metric's definition stable when a
#: faster program fits more samples into the same run length.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a tail percentile needs strictly beyond it.
TAIL_MIN_BEYOND = 10

#: Samples a latency window needs: enough for a p75 tail under the rule.
WINDOW_MIN_SAMPLES = 40

MB = 1e6


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    A sample of ``n`` values has ``n * (1 - q/100)`` values beyond the
    ``q``-th percentile.  Below 20 samples not even the median qualifies;
    the median is returned anyway so a tiny run still reports something,
    and the caller says so next to the sample count.
    """
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return q
    return 50.0


def latency_windows(cycles, min_samples: int = WINDOW_MIN_SAMPLES) -> list[list[float]]:
    """Group per-cycle latency samples into windows of whole cycles.

    A window closes as soon as it holds ``min_samples`` samples; a
    trailing window that never fills is dropped, unless no window filled
    at all, in which case every sample forms the one window.
    """
    windows, current = [], []
    for samples in cycles:
        current.extend(samples)
        if len(current) >= min_samples:
            windows.append(current)
            current = []
    if not windows and current:
        windows.append(current)
    return windows


def latency_summary(windows) -> tuple[float, float, float]:
    """``(p50, tail, q)`` over every sample of every window.

    The windows fix the tail percentile: the ten-beyond rule is applied to
    the smallest window, so ``q`` depends on the workload's cycle, not on
    how many cycles a run fits (a faster program must not be read at a
    higher percentile).  The values are taken over all samples pooled, so
    a slow event lands in the tail wherever it strikes, and host
    interference that varies within a run is averaged over the whole run
    rather than picked out by a single window.
    """
    q = tail_percentile(min(len(w) for w in windows))
    p50, tail = np.percentile(np.concatenate(windows), [50.0, q])
    return float(p50), float(tail), q


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval first, so a child that
    overruns its parent (clock skew, a span closed late) cannot push self
    time below zero, and overlapping children are subtracted only once.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return max(0.0, (end - start) - union_length(clipped))


def mb_per_s(nbytes: float, seconds: float) -> float:
    """Decimal megabytes (10^6 bytes) per second."""
    if seconds <= 0:
        raise ValueError(f"throughput needs a positive duration, got {seconds}")
    return nbytes / MB / seconds
