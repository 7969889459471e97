"""Span recording, self time over recorded spans, and clean un-instrumenting."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import spans


def _fake(name, start, end, parent=-1, rid=None):
    return [name, start, end, parent, rid, None]


def test_recorder_nests_and_inherits_request_ids():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: 1)
    outer = rec.wrap("outer", lambda req: inner() + 1, rid=lambda args, kwargs: args[0])
    assert outer(7) == 2 and rec.spans == []          # disabled: pass-through
    with rec.recording(rid="op-0"):
        outer(7)
        inner()
    names = [s[spans.NAME] for s in rec.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[spans.PARENT] for s in rec.spans] == [-1, 0, -1]
    assert [s[spans.RID] for s in rec.spans] == [7, 7, "op-0"]
    for s in rec.spans:
        assert s[spans.END] >= s[spans.START]
    assert not rec.enabled


def test_recorder_closes_spans_on_exceptions():
    rec = spans.Recorder()

    def boom():
        raise KeyError("x")

    wrapped = rec.wrap("boom", boom)
    with rec.recording():
        with pytest.raises(KeyError):
            wrapped()
        rec.wrap("after", lambda: None)()
    assert rec.spans[1][spans.PARENT] == -1           # the stack unwound


def test_self_times_nested_and_overlapping():
    recorded = [
        _fake("root", 0.0, 10.0),
        _fake("a", 1.0, 5.0, parent=0),
        _fake("a.1", 2.0, 3.0, parent=1),            # grandchild: not root's concern
        _fake("b", 3.0, 7.0, parent=0),              # overlaps a on [3, 5]
        _fake("other", 20.0, 21.0),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == pytest.approx([4.0, 3.0, 1.0, 4.0, 1.0])


def test_instrument_restores_every_patched_name():
    import repro.core.api as api
    import repro.serve.service as service
    from repro.core.chop import DCTChopCompressor

    before = (DCTChopCompressor.__dict__["compress"], api.make_compressor,
              service.make_compressor, service.compile_program)
    rec = spans.Recorder()
    with spans.instrument(rec):
        assert api.make_compressor is not before[1]
        assert service.make_compressor is api.make_compressor
        comp = api.make_compressor(16, cf=2)
        with rec.recording():
            comp.compress(np.ones((1, 3, 16, 16), np.float32))
    after = (DCTChopCompressor.__dict__["compress"], api.make_compressor,
             service.make_compressor, service.compile_program)
    assert after == before
    names = {s[spans.NAME] for s in rec.spans}
    assert "core.compress" in names
    assert names & {"core.kernel.tiled", "core.kernel.dense"}


def test_layer_metrics_from_synthetic_spans():
    recorded = [
        _fake("serve.submit", 0.0, 10e-6),
        _fake("serve.batcher", 1e-6, 3e-6, parent=0),
        _fake("obs.metric", 4e-6, 5e-6, parent=0),
        _fake("serve.poll", 10e-6, 20e-6),
        _fake("serve.plan_cache.get", 12e-6, 13e-6, parent=3),
    ]
    recorded[4][spans.ATTR] = True
    metrics, lines = spans.layer_metrics(recorded, wall_s=25e-6, ops=1, counts={})
    assert metrics["serve.dispatch_self_us"][0] == pytest.approx((7.0 + 9.0) / 2)
    assert metrics["serve.batcher_us"][0] == pytest.approx(2.0)
    assert metrics["obs.metric_updates_per_request"][0] == 1.0
    assert metrics["serve.plan_cache_hit_ratio"][0] == 1.0
    assert metrics["fleet.polls_per_request"][0] == 1.0
    assert metrics["trace.coverage"][0] == pytest.approx(20 / 25)
    assert any(line.startswith("(outside any span)") for line in lines)
