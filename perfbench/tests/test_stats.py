"""The benchmark's own arithmetic: tails, interval unions, self time, units."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, 50.0),       # too few for any tail: falls back to the median
        (19, 50.0),
        (20, 50.0),      # exactly 10 beyond the median
        (39, 50.0),
        (40, 75.0),      # 10 beyond p75
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),   # 10 beyond p99.9, despite float rounding of 100 - 99.9
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 40, 57, 100, 350, 1000, 4321, 10000, 123456])
def test_tail_percentile_is_the_highest_qualifying_rung(n):
    q = stats.tail_percentile(n)
    assert n * (100 - q) / 100 >= 10 - 1e-9
    higher = [r for r in stats.TAIL_LADDER if r > q]
    assert all(n * (100 - r) / 100 < 10 - 1e-9 for r in higher)


def test_union_length_counts_overlaps_once():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 1), (2, 4)]) == 3.0                 # disjoint
    assert stats.union_length([(0, 3), (1, 2)]) == 3.0                 # nested
    assert stats.union_length([(0, 2), (1, 3)]) == 3.0                 # overlapping
    assert stats.union_length([(1, 3), (0, 2), (2, 5), (7, 8)]) == 6.0  # unsorted chain
    assert stats.union_length([(0, 1), (1, 2)]) == 2.0                 # touching
    assert stats.union_length([(5, 5), (3, 2)]) == 0.0                 # empty and inverted


def test_self_time_nested_children():
    # parent [0, 10] with children [1, 3] and [4, 6]; grandchildren are not
    # the parent's business, only direct children are passed.
    assert stats.self_time(0, 10, [(1, 3), (4, 6)]) == pytest.approx(6.0)
    assert stats.self_time(0, 10, []) == pytest.approx(10.0)


def test_self_time_overlapping_children_subtracted_once():
    # Children [1, 5] and [3, 7] overlap on [3, 5]: covered length is 6, not 8.
    assert stats.self_time(0, 10, [(1, 5), (3, 7)]) == pytest.approx(4.0)
    # A child fully inside another adds nothing.
    assert stats.self_time(0, 10, [(1, 9), (2, 3)]) == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    assert stats.self_time(2, 6, [(0, 3), (5, 9)]) == pytest.approx(2.0)
    assert stats.self_time(2, 6, [(0, 10)]) == 0.0


def test_mb_per_s_units():
    assert stats.mb_per_s(1_000_000, 1.0) == 1.0          # decimal MB
    assert stats.mb_per_s(8 * 3 * 512 * 512 * 4, 0.5) == pytest.approx(50.331648)
    assert stats.mb_per_s(0, 2.0) == 0.0
    with pytest.raises(ValueError):
        stats.mb_per_s(1, 0.0)


def test_latency_windows_close_on_whole_cycles():
    cycles = [[1.0] * 8] * 11                       # 8 samples a cycle, like fleet-churn
    windows = stats.latency_windows(cycles, min_samples=40)
    assert [len(w) for w in windows] == [40, 40]    # the 11th cycle never fills a window
    assert [len(w) for w in stats.latency_windows([[1.0] * 54] * 3)] == [54, 54, 54]
    assert [len(w) for w in stats.latency_windows([[1.0] * 8] * 2)] == [16]   # too few: one
    assert stats.latency_windows([]) == []


def test_latency_summary_pools_every_window():
    fast = [float(i) for i in range(1, 101)]        # p50 50.5, p90 90.1
    slow = [2 * v for v in fast]                    # a window inside a slow episode
    p50, tail, q = stats.latency_summary([slow, fast, slow])
    assert q == 90.0
    pooled = fast + slow + slow
    assert p50 == pytest.approx(np.percentile(pooled, 50))
    assert tail == pytest.approx(np.percentile(pooled, 90))
    # One slow window moves the pooled reading only by its share of samples.
    p50_one, _, _ = stats.latency_summary([fast, fast, fast, slow])
    assert p50_one < p50


def test_latency_summary_keeps_a_slow_event_that_moves_between_requests():
    # Each window has one slow request, a different one each time: a tail
    # over per-request minimums would miss it, a tail over every sample
    # does not.
    windows = []
    for k in range(5):
        w = [1.0] * 40
        w[k] = 100.0
        windows.append(w)
    windows = [w * 25 for w in windows]             # 1000 samples, 25 slow: p99 sees them
    p50, tail, q = stats.latency_summary(windows)
    assert (p50, q) == (1.0, 99.0)
    assert tail == 100.0


def test_latency_summary_keeps_a_slow_event_confined_to_one_window():
    clean = [1.0] * 1000
    hit = [1.0] * 900 + [100.0] * 100               # 100 slow of 5000 pooled: beyond p99
    _, tail, q = stats.latency_summary([clean, clean, hit, clean, clean])
    assert (q, tail) == (99.0, 100.0)


def test_latency_summary_reads_all_windows_at_the_smallest_windows_rung():
    _, _, q = stats.latency_summary([[1.0] * 1000, [1.0] * 40])
    assert q == 75.0
