"""Counters, gauges, histograms, reservoirs, and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Reservoir,
    exponential_buckets,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_labelled_increments_accumulate(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", help="cache hits")
        c.inc(platform="ipu")
        c.inc(2, platform="ipu")
        c.inc(platform="a100")
        assert c.value(platform="ipu") == 3
        assert c.value(platform="a100") == 1
        assert c.total == 4

    def test_counters_cannot_decrease(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ConfigError, match="cannot decrease"):
            c.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ConfigError, match="already registered"):
            reg.gauge("n")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value() == 6


class TestHistogram:
    def test_exponential_buckets(self):
        b = exponential_buckets(1.0, 2.0, 4)
        assert b == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ConfigError):
            exponential_buckets(0.0, 2.0, 4)

    def test_observations_land_in_bounded_buckets(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(105.0)
        assert h.bucket_counts() == [1, 1, 1, 1]  # last = +Inf overflow

    def test_quantile_is_bucket_upper_bound(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 0.7, 3.0):
            h.observe(v)
        assert h.quantile(50) == 1.0
        assert h.quantile(99) == 4.0
        assert Histogram("empty", buckets=(1.0,)).quantile(50) == 0.0


class TestReservoir:
    def test_exact_below_capacity(self):
        r = Reservoir(capacity=100, seed=0)
        r.extend(float(i) for i in range(1, 101))
        assert not r.saturated
        assert r.percentile(50) == 50.0
        assert r.percentile(95) == 95.0
        assert r.min == 1.0 and r.max == 100.0
        assert r.count == 100

    def test_bounded_beyond_capacity(self):
        r = Reservoir(capacity=64, seed=0)
        r.extend(float(i) for i in range(10_000))
        assert len(r) == 64
        assert r.saturated
        assert r.count == 10_000
        # The estimate stays within the observed range.
        assert 0.0 <= r.percentile(50) <= 9999.0

    def test_same_seed_same_samples(self):
        a, b = Reservoir(capacity=8, seed=5), Reservoir(capacity=8, seed=5)
        for v in range(1000):
            a.add(float(v))
            b.add(float(v))
        assert a == b
        assert a.samples == b.samples

    def test_empty_percentile_is_zero(self):
        assert Reservoir().percentile(50) == 0.0


class TestRegistry:
    def test_set_registry_swaps_process_default(self):
        mine = MetricsRegistry()
        prev = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(prev)

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_hits_total", help="cache hits").inc(3, cache="c0")
        reg.gauge("repro_depth").set(7)
        h = reg.histogram("repro_lat_seconds", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        text = reg.render_prometheus()
        assert "# HELP repro_hits_total cache hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{cache="c0"} 3' in text
        assert "repro_depth 7" in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_count 2" in text

    def test_rendering_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b_total").inc(z="1")
            reg.counter("b_total").inc(a="2")
            reg.counter("a_total").inc()
            return reg.render_prometheus()

        assert build() == build()

    def test_reset_drops_instruments(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.reset()
        assert reg.names() == []


class TestHistogramBucketEdges:
    """Exponential-bucket boundary semantics: ``le`` is inclusive.

    A value exactly on a bucket's upper bound counts into *that* bucket
    (Prometheus ``le`` convention), values below the first bound land in
    bucket 0, values above the last land only in +Inf overflow.
    """

    def test_value_exactly_on_boundary_counts_into_that_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(2.0)                      # == second bound
        assert h.bucket_counts() == [0, 1, 0, 0]

    def test_value_on_first_boundary(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)
        assert h.bucket_counts() == [1, 0, 0, 0]

    def test_value_below_first_bound(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(0.0)
        h.observe(-3.0)                     # pathological but must not crash
        assert h.bucket_counts() == [2, 0, 0, 0]

    def test_value_on_last_finite_bound_is_not_overflow(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(4.0)
        assert h.bucket_counts() == [0, 0, 1, 0]

    def test_value_above_last_bound_lands_only_in_inf(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(4.000001)
        assert h.bucket_counts() == [0, 0, 0, 1]

    def test_inf_bucket_cumulative_equals_count_in_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_edge_seconds", buckets=(1.0, 2.0))
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        text = reg.render_prometheus()
        # le="1" sees the on-boundary 1.0; le="2" adds the on-boundary 2.0;
        # +Inf pins to the total observation count.
        assert 'repro_edge_seconds_bucket{le="1"} 1' in text
        assert 'repro_edge_seconds_bucket{le="2"} 2' in text
        assert 'repro_edge_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_edge_seconds_count 4" in text

    def test_exponential_boundary_membership(self):
        bounds = exponential_buckets(1e-6, 2.0, 10)
        h = Histogram("lat", buckets=bounds)
        for b in bounds:
            h.observe(b)                    # each exactly on a bound
        counts = h.bucket_counts()
        assert counts == [1] * len(bounds) + [0]

    def test_bucket_index_matches_searchsorted_left(self):
        bounds = exponential_buckets(1e-6, 2.0, 23)
        edges = np.asarray(bounds)
        values = np.concatenate([
            edges,                                  # on each bound
            np.sqrt(edges[:-1] * edges[1:]),        # between bounds
            [0.0, -1.0, 1e-9, edges[-1] * 3, np.inf, -np.inf, np.nan],
        ])
        for v in [*values.tolist(), *values.astype(np.float32)]:
            h = Histogram("lat", buckets=bounds)
            h.observe(v)
            assert h.bucket_counts().index(1) == np.searchsorted(bounds, v, side="left"), v


class TestPrometheusEscaping:
    """Exposition-spec escaping of label values and HELP text."""

    def test_label_value_escapes(self):
        reg = MetricsRegistry()
        reg.counter("repro_esc_total").inc(path='C:\\tmp\n"x"')
        text = reg.render_prometheus()
        assert 'repro_esc_total{path="C:\\\\tmp\\n\\"x\\""} 1' in text
        assert "\n\"x" not in text          # raw newline never splits a line

    def test_help_escapes_backslash_and_newline(self):
        reg = MetricsRegistry()
        reg.counter("repro_h_total", help='line1\nline2 \\ "quoted"').inc()
        text = reg.render_prometheus()
        assert '# HELP repro_h_total line1\\nline2 \\\\ "quoted"' in text

    def test_every_rendered_line_is_single_line(self):
        reg = MetricsRegistry()
        reg.gauge("repro_g", help="a\nb").set(1, tenant="t\n0")
        for line in reg.render_prometheus().splitlines():
            assert line == line.strip("\r")
            assert line.startswith(("#", "repro_g"))

    def test_round_trip_parse(self):
        """The rendered text parses back to the exact series values."""
        reg = MetricsRegistry()
        reg.counter("repro_rt_total", help="with \\ and \n inside").inc(
            2, worker='w"0"', note="a\\b\nc"
        )
        reg.gauge("repro_rt_depth").set(5, worker="w1")
        text = reg.render_prometheus()

        import re

        parsed = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            m = re.fullmatch(r"(\w+)(?:\{(.*)\})? (\S+)", line)
            assert m, f"unparseable exposition line: {line!r}"
            name, labelstr, value = m.groups()
            labels = {}
            if labelstr:
                for lm in re.finditer(r'(\w+)="((?:\\.|[^"\\])*)"', labelstr):
                    raw = lm.group(2)
                    labels[lm.group(1)] = (
                        raw.replace("\\n", "\n")
                        .replace('\\"', '"')
                        .replace("\\\\", "\\")
                    )
            parsed[(name, tuple(sorted(labels.items())))] = float(value)
        assert parsed[
            ("repro_rt_total", (("note", "a\\b\nc"), ("worker", 'w"0"')))
        ] == 2.0
        assert parsed[("repro_rt_depth", (("worker", "w1"),))] == 5.0

    def test_byte_stability_with_escaped_labels(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("repro_s_total").inc(k='b"\n')
            reg.counter("repro_s_total").inc(k="a\\")
            return reg.render_prometheus()

        assert build() == build()
