"""The serving stack shares one compressor per configuration.

A plan-cache hit must build no compressor, and a recompile (an eviction,
or a fresh router's empty cache) must trace the already-probed instance
instead of re-certifying its shapes.  Outputs stay bit-identical to the
dense oracle, and :func:`make_compressor` still hands out fresh instances.
"""

import numpy as np
import pytest

from repro.chaos import reference_output
from repro.core import (
    DCTChopCompressor,
    PartialSerializedCompressor,
    ScatterGatherCompressor,
    api,
    force_dense,
    fused,
    make_compressor,
    shared_compressor,
)
from repro.fleet import FleetRouter, multi_tenant_trace
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.serve import CompiledPlanCache, CompressionService, synthetic_trace


@pytest.fixture(autouse=True)
def _fresh_state():
    old = get_registry()
    set_registry(MetricsRegistry())
    api.clear_cache()
    yield
    api.clear_cache()
    set_registry(old)


@pytest.fixture
def builds(monkeypatch):
    """Count every compressor construction, whoever makes it."""
    calls = []
    for cls in (DCTChopCompressor, PartialSerializedCompressor, ScatterGatherCompressor):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            calls.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return calls


def assert_bit_identical(responses):
    """Each output equals a fresh host compressor's, on the dense oracle."""
    assert responses
    with force_dense():
        for r in responses:
            assert np.array_equal(r.output, reference_output(r)), r.request.rid


def probes() -> int:
    stats = fused.fast_path_stats()
    return stats["pass"] + stats["fail"]


def test_plan_cache_hit_builds_no_compressor(builds):
    trace = synthetic_trace(
        120, seed=3, resolutions=(16, 32), cfs=(2, 4), methods=("dc", "ps", "sg")
    )
    cache = CompiledPlanCache()
    first, _ = CompressionService(cache=cache).process(trace)
    assert builds, "the first pass should build the configurations it meets"
    built_once = len(builds)
    misses = cache.misses
    second, stats = CompressionService(cache=cache).process(trace)
    assert cache.misses == misses and stats.cache.hits > 0   # every plan lookup hit
    assert len(builds) == built_once                          # ...and built nothing
    assert_bit_identical(first)
    assert_bit_identical(second)


def test_recompile_after_eviction_reprobes_nothing():
    trace = multi_tenant_trace(
        96, seed=5, resolutions=(32, 48, 64), cfs=(2, 3, 4),
        methods=("dc", "ps", "sg"), rate=8000.0,
    )

    def one_pass():
        router = FleetRouter(4, cache_capacity=2, spill_depth=8)
        responses, _ = router.process(trace)
        caches = [w.service.cache for w in router.workers.values()]
        return responses, sum(c.misses for c in caches), sum(c.evictions for c in caches)

    first, _, _ = one_pass()
    assert probes() > 0
    before = probes()
    second, misses, evictions = one_pass()
    assert misses > 0 and evictions > 0          # the second pass recompiled
    assert probes() == before                    # ...on already-certified shapes
    assert_bit_identical(first)
    assert_bit_identical(second)


def test_make_compressor_returns_fresh_instances():
    a = make_compressor(32, cf=4)
    b = make_compressor(32, cf=4)
    assert a is not b
    shared = shared_compressor(32, cf=4)
    assert shared is shared_compressor(32, 32, method="dc", cf=4, s=2)
    assert shared is not a and shared is not make_compressor(32, cf=4)
    assert shared_compressor(32, cf=2) is not shared
