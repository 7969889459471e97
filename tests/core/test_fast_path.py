"""Tiled fast path ≡ dense oracle, bit for bit — plus cache/no-copy guards.

The fast path's contract is *constructive* bit-identity: any shape whose
seeded probe does not match the dense path bitwise is pinned to the dense
path, so the user-visible output equals the dense oracle's bytes on every
shape, dtype and variant.  These tests exercise that contract directly.
"""

import numpy as np
import pytest

from repro.core import (
    DCTChopCompressor,
    PartialSerializedCompressor,
    ScatterGatherCompressor,
    fast_path_enabled,
    force_dense,
    fused_operators,
    make_compressor,
    set_fast_path,
)
from repro.core import fused
from repro.tensor import Tensor

SHAPES = [
    # (n, cf, lead): square sizes with assorted batch/channel leads,
    # including odd and size-1 dims.
    (64, 2, ()),
    (64, 7, (4,)),
    (256, 4, (2,)),
    (32, 5, (3, 1, 2)),
    (48, 3, (5,)),
    (16, 8, (7, 3)),
]


def _pair(method, n, cf, **kw):
    fast = make_compressor(n, method=method, cf=cf, fast=True, **kw)
    dense = make_compressor(n, method=method, cf=cf, fast=False, **kw)
    return fast, dense


class TestBitIdentity:
    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    @pytest.mark.parametrize("n,cf,lead", SHAPES)
    def test_compress_decompress_match_dense(self, rng, method, n, cf, lead):
        kw = {"s": 2} if method == "ps" else {}
        fast, dense = _pair(method, n, cf, **kw)
        x = rng.standard_normal(lead + (n, n)).astype(np.float32)
        yf, yd = fast.compress(x), dense.compress(x)
        assert yf.shape == yd.shape
        assert np.array_equal(yf.data, yd.data)
        rf, rd = fast.decompress(yf), dense.decompress(yd)
        assert np.array_equal(rf.data, rd.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtypes(self, rng, dtype):
        fast, dense = _pair("dc", 64, 4)
        x = Tensor(rng.standard_normal((3, 64, 64)), dtype=dtype)
        assert x.dtype == dtype
        yf, yd = fast.compress(x), dense.compress(x)
        assert yf.dtype == yd.dtype
        assert np.array_equal(yf.data, yd.data)
        assert np.array_equal(fast.decompress(yf).data, dense.decompress(yd).data)

    def test_rectangular_planes(self, rng):
        fast = DCTChopCompressor(32, 64, cf=3, fast=True)
        dense = DCTChopCompressor(32, 64, cf=3, fast=False)
        x = rng.standard_normal((2, 32, 64)).astype(np.float32)
        yf, yd = fast.compress(x), dense.compress(x)
        assert np.array_equal(yf.data, yd.data)
        assert np.array_equal(fast.decompress(yf).data, dense.decompress(yd).data)

    def test_custom_transform(self, rng):
        # Custom (non-orthonormal) transforms slice their own operators.
        t = np.linalg.qr(rng.standard_normal((8, 8)))[0].astype(np.float32) * 1.5
        fast = DCTChopCompressor(32, cf=4, transform=t, fast=True)
        dense = DCTChopCompressor(32, cf=4, transform=t, fast=False)
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        yf, yd = fast.compress(x), dense.compress(x)
        assert np.array_equal(yf.data, yd.data)
        assert np.array_equal(fast.decompress(yf).data, dense.decompress(yd).data)

    def test_ps_sweep_over_s(self, rng):
        for s in (1, 2, 4):
            fast = PartialSerializedCompressor(64, cf=4, s=s, fast=True)
            dense = PartialSerializedCompressor(64, cf=4, s=s, fast=False)
            x = rng.standard_normal((2, 64, 64)).astype(np.float32)
            assert np.array_equal(fast.compress(x).data, dense.compress(x).data)

    def test_sg_blocks_layout_matches_shuffled_dense(self, rng):
        # The fused blocks-layout output must equal dense-then-reshuffle.
        sg_fast = ScatterGatherCompressor(40, cf=5, fast=True)
        sg_dense = ScatterGatherCompressor(40, cf=5, fast=False)
        x = rng.standard_normal((3, 40, 40)).astype(np.float32)
        zf, zd = sg_fast.compress(x), sg_dense.compress(x)
        assert np.array_equal(zf.data, zd.data)
        assert np.array_equal(sg_fast.decompress(zf).data, sg_dense.decompress(zd).data)


class TestProbeGuard:
    def test_verdicts_cached_per_shape(self, rng):
        c = DCTChopCompressor(32, cf=4, fast=True)
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        c.compress(x)
        key = ("compress", (2,), "<f4")
        assert key in c._verdicts
        verdict = c._verdicts[key]
        c.compress(x)  # second call must reuse, not re-probe
        assert c._verdicts[key] is verdict

    def test_failed_probe_pins_shape_to_dense(self, rng, monkeypatch):
        c = DCTChopCompressor(32, cf=4, fast=True)
        monkeypatch.setattr(c, "_probe", lambda *a: False)
        x = rng.standard_normal((32, 32)).astype(np.float32)
        with force_dense():
            expected = c.compress(x).data
        assert np.array_equal(c.compress(x).data, expected)
        assert c._verdicts[("compress", (), "<f4")] is False

    def test_verdict_cache_bounded(self, rng):
        from repro.core import chop

        c = DCTChopCompressor(16, cf=2, fast=True)
        for batch in range(1, chop._VERDICT_CAP + 10):
            c.compress(rng.standard_normal((batch, 16, 16)).astype(np.float32))
        assert len(c._verdicts) <= chop._VERDICT_CAP

    def test_probe_input_deterministic(self):
        a = fused.probe_input((2, 16, 16), np.float32, cf=3, block=8, direction="compress")
        b = fused.probe_input((2, 16, 16), np.float32, cf=3, block=8, direction="compress")
        assert np.array_equal(a, b)
        c = fused.probe_input((2, 16, 16), np.float32, cf=3, block=8, direction="decompress")
        assert not np.array_equal(a, c)


class TestSwitches:
    def test_global_switch(self, rng):
        c = DCTChopCompressor(32, cf=4)
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        old = set_fast_path(False)
        try:
            assert not fast_path_enabled()
            assert not c._use_fast((2, 32, 32), np.float32, "compress")
        finally:
            set_fast_path(old)

    def test_instance_override_beats_global(self):
        c = DCTChopCompressor(32, cf=4, fast=False)
        assert not c._use_fast((2, 32, 32), np.float32, "compress")

    def test_force_dense_context(self, rng):
        c = DCTChopCompressor(32, cf=4, fast=True)
        with force_dense():
            assert not c._use_fast((2, 32, 32), np.float32, "compress")
        x = rng.standard_normal((2, 32, 32)).astype(np.float32)
        with force_dense():
            inside = c.compress(x)
        assert np.array_equal(inside.data, c.compress(x).data)


class TestGradients:
    @staticmethod
    def _grad(comp, direction, data, weight):
        """d/d(input) of ``sum(weight * f(input))``, ``f`` one direction."""
        x = Tensor(data.copy(), requires_grad=True)
        out = comp.compress(x) if direction == "compress" else comp.decompress(x)
        (out * Tensor(weight)).sum().backward()
        return x.grad.copy()

    @staticmethod
    def _inputs(comp, direction, rng):
        plane = (2, 32, 32)
        data = rng.standard_normal(plane).astype(np.float32)
        if direction == "decompress":
            data = comp.compress(data).numpy()
        out_shape = (comp.compress(data) if direction == "compress"
                     else comp.decompress(data)).shape
        return data, rng.standard_normal(out_shape).astype(np.float32)

    @pytest.mark.parametrize("direction", ["compress", "decompress"])
    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    def test_fast_path_gradients_match_dense(self, rng, monkeypatch, method, direction):
        fast, dense = _pair(method, 32, 4)
        calls = []

        def counted(kernel):
            def wrapper(*args, **kwargs):
                calls.append(kernel.__name__)
                return kernel(*args, **kwargs)
            return wrapper

        for name in ("tiled_compress", "tiled_decompress"):
            monkeypatch.setattr(fused, name, counted(getattr(fused, name)))
        data, weight = self._inputs(dense, direction, rng)
        got = self._grad(fast, direction, data, weight)
        assert calls, "the tape-carrying call did not take the tiled adapter"
        want = self._grad(dense, direction, data, weight)
        # Largest deviation measured over five seeds: 4.8e-7.
        np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("direction", ["compress", "decompress"])
    def test_custom_transform_backward_uses_the_adjoint(self, rng, direction):
        # A non-orthonormal transform's adjoint is not its inverse: with
        # rows of the DCT scaled by 0.5..2, the inverse scales by 2..0.5,
        # so a backward that reused the decompress operators is far off.
        from repro.core.dct import dct_matrix

        t = (np.linspace(0.5, 2.0, 8)[:, None] * dct_matrix(8)).astype(np.float32)
        fast = DCTChopCompressor(32, cf=4, transform=t, fast=True)
        dense = DCTChopCompressor(32, cf=4, transform=t, fast=False)
        data, weight = self._inputs(dense, direction, rng)
        # Largest deviation measured over nine seeds: 1.9e-6.
        np.testing.assert_allclose(
            self._grad(fast, direction, data, weight),
            self._grad(dense, direction, data, weight),
            atol=1e-5,
        )

    def test_tape_call_inside_arena_holds_no_ring_slot(self, rng):
        from repro.core.arena import Arena

        comp = DCTChopCompressor(32, cf=4, fast=True)
        data, weight = self._inputs(comp, "compress", rng)
        outside = self._grad(comp, "compress", data, weight)
        arena = Arena()
        with arena.use():
            inside = self._grad(comp, "compress", data, weight)
        assert arena.reserved_bytes() == 0
        assert arena.hits == arena.misses == 0
        assert inside.tobytes() == outside.tobytes()


class TestOperatorCache:
    def test_fused_operators_cached_and_readonly(self):
        a = fused_operators(8, 4)
        b = fused_operators(8, 4)
        assert a is b
        for arr in (a.enc_r, a.enc_lT, a.dec_r, a.dec_lT):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_cache_key_includes_dtype(self):
        a = fused_operators(8, 4, np.float32)
        b = fused_operators(8, 4, np.float64)
        assert a is not b
        assert b.enc_r.dtype == np.float64

    def test_cache_bounded(self):
        fused.clear_fused_cache()
        for cf in range(1, 9):
            for block in (8, 16, 24, 32, 40, 48, 56, 64):
                if cf <= block:
                    fused_operators(block, cf)
        assert fused.fused_cache_size() <= fused._FUSED_CACHE_CAPACITY
        fused.clear_fused_cache()
        assert fused.fused_cache_size() == 0

    def test_transform_matrices_not_copied_per_call(self):
        # No-copy regression guard on the transform cache: constructing
        # two compressors must reuse the same cached DCT bytes.
        from repro.core.dct import block_diagonal_dct, dct_matrix

        assert block_diagonal_dct(32) is block_diagonal_dct(32)
        assert dct_matrix(8) is dct_matrix(8)
        t1 = DCTChopCompressor(32, cf=4)._fops
        t2 = DCTChopCompressor(32, cf=4)._fops
        assert t1 is t2  # same FusedOps object from the shared cache


class TestTracingStaysDense:
    def test_traced_graph_is_two_matmuls_with_fast_enabled(self):
        # The tiled path must never leak into the captured device program.
        from repro.accel.graph import trace

        c = DCTChopCompressor(64, cf=4, fast=True)
        x = np.zeros((2, 64, 64), dtype=np.float32)
        graph = trace(c.compress, x)
        assert graph.op_names == ["matmul", "matmul"]

    def test_compiled_program_runs_fast_path_bit_identically(self, rng):
        from repro.accel.compiler import compile_program

        c = DCTChopCompressor(64, cf=4, fast=True)
        dense = DCTChopCompressor(64, cf=4, fast=False)
        x = rng.standard_normal((2, 64, 64)).astype(np.float32)
        prog = compile_program(c.compress, (x,), "a100")
        out = prog.run(x).output
        assert np.array_equal(out.data, dense.compress(x).data)


class TestConcurrentProbes:
    """Satellite: the probe-verdict cache and the global probe counters
    are shared mutable state; concurrent first-touch traffic must not
    lose updates or double-probe."""

    def test_concurrent_fresh_shapes_probe_exactly_once_each(self, rng):
        import threading

        c = DCTChopCompressor(16, cf=2, fast=True)
        probes = []
        probe_lock = threading.Lock()
        original = c._probe

        def counting_probe(direction, shape, dtype, workers=1):
            with probe_lock:
                probes.append((direction, shape, workers))
            return original(direction, shape, dtype, workers)

        c._probe = counting_probe
        inputs = [
            rng.standard_normal((batch, 16, 16)).astype(np.float32)
            for batch in range(1, 9)
        ]
        errors = []
        barrier = threading.Barrier(8)

        def hammer(x):
            try:
                barrier.wait()
                for _ in range(5):
                    c.compress(x)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(x,)) for x in inputs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # One probe per distinct lead shape — the verdict lock must hold
        # across probe + insert, or racing threads re-probe.
        assert len(probes) == len(set(probes)) == 8
        assert len(c._verdicts) == 8

    def test_probe_counters_lose_no_updates(self):
        import threading

        before = fused.fast_path_stats()
        rounds, threads_n = 50, 8

        def spin():
            for i in range(rounds):
                fused.record_probe(i % 2 == 0)

        threads = [threading.Thread(target=spin) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = fused.fast_path_stats()
        gained = (after["pass"] - before["pass"]) + (after["fail"] - before["fail"])
        assert gained == rounds * threads_n
        assert after["pass"] - before["pass"] == rounds * threads_n // 2

    def test_stats_snapshot_is_a_copy(self):
        snap = fused.fast_path_stats()
        snap["pass"] += 1000
        assert fused.fast_path_stats()["pass"] != snap["pass"]
