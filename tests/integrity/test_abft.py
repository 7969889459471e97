"""ABFT checksum guard: detection, correction, and the NaN/Inf hole."""

import numpy as np
import pytest

import repro.integrity.abft as abft_mod
from repro.errors import IntegrityFault
from repro.faults import FaultInjector, FaultPlan
from repro.integrity import (
    IntegrityPolicy,
    abft_mismatch,
    checked_matmul,
    detected,
    integrity_stats,
)


def _mats(rng, n=24, k=16, m=12):
    a = rng.standard_normal((n, k)).astype(np.float32)
    b = rng.standard_normal((k, m)).astype(np.float32)
    return a, b


class TestAbftMismatch:
    def test_clean_product_passes(self, rng):
        a, b = _mats(rng)
        assert not abft_mismatch(a, b, a @ b, rtol=1e-5, atol=1e-8)

    def test_exponent_flip_detected(self, rng):
        a, b = _mats(rng)
        c = a @ b
        c[3, 4] = np.float32(
            np.frombuffer(
                (np.frombuffer(c[3, 4].tobytes(), np.uint32) ^ (1 << 30)).tobytes(),
                np.float32,
            )[0]
        )
        assert abft_mismatch(a, b, c, rtol=1e-5, atol=1e-8)

    def test_inf_element_is_a_mismatch(self, rng):
        # Regression: an exponent flip can push an element to +/-Inf, which
        # makes the row sum Inf (or NaN, if the row also holds -Inf), and
        # ``NaN > tol`` is False — a naive comparison waves exactly the
        # worst corruption through.
        a, b = _mats(rng)
        c = a @ b
        c[0, 0] = np.inf
        assert abft_mismatch(a, b, c, rtol=1e-5, atol=1e-8)

    def test_nan_row_sum_is_a_mismatch(self, rng):
        a, b = _mats(rng)
        c = a @ b
        c[5, 1] = np.inf
        c[5, 2] = -np.inf          # row sum becomes NaN
        assert abft_mismatch(a, b, c, rtol=1e-5, atol=1e-8)
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(c[5].sum())

    def test_every_row_slab_is_checked(self, rng, monkeypatch):
        # Rows are checked a slab at a time; a flip in the last slab counts.
        monkeypatch.setattr(abft_mod, "_CHECK_BYTES", 5 * 16 * 4)   # 5 rows of a
        a, b = _mats(rng)
        c = a @ b
        assert not abft_mismatch(a, b, c, rtol=1e-5, atol=1e-8)
        c[-1, 0] = np.inf
        assert abft_mismatch(a, b, c, rtol=1e-5, atol=1e-8)

    def test_float_noise_within_tolerance(self, rng):
        a, b = _mats(rng, n=64, k=128, m=64)
        c = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.float32)
        # Reassociation-level noise vs the float32 product must not trip.
        assert not abft_mismatch(a, b, c, rtol=1e-4, atol=1e-6)


class TestCheckedMatmul:
    def test_clean_path_is_byte_identical(self, rng):
        a, b = _mats(rng)
        out = checked_matmul(a, b, policy=IntegrityPolicy())
        assert out.tobytes() == np.matmul(a, b).tobytes()
        assert detected() == 0

    def test_injected_flip_corrected_in_place(self, rng):
        a, b = _mats(rng)
        plan = FaultPlan(seed=5).add("gemm", "sdc_bit_flip", after=0, times=1)
        with FaultInjector(plan) as inj:
            out = checked_matmul(a, b, policy=IntegrityPolicy())
        assert len(inj.records) == 1 and inj.records[0].site == "gemm"
        # Majority vote returned the honest product, bit-exact.
        assert out.tobytes() == np.matmul(a, b).tobytes()
        stats = integrity_stats()
        assert stats["detected:gemm"] == 1
        assert stats["corrected:gemm"] == 1

    def test_single_recompute_self_checks(self, rng):
        a, b = _mats(rng)
        plan = FaultPlan(seed=5).add("gemm", "sdc_bit_flip", after=0, times=1)
        with FaultInjector(plan):
            out = checked_matmul(a, b, policy=IntegrityPolicy(max_recomputes=1))
        # One recompute cannot majority-vote; it re-passes the checksum.
        assert out.tobytes() == np.matmul(a, b).tobytes()
        assert integrity_stats()["corrected:gemm"] == 1

    def test_persistent_disagreement_raises(self, rng, monkeypatch):
        a, b = _mats(rng)
        calls = {"n": 0}
        honest = np.matmul

        def flaky(x, y, *args, **kwargs):
            calls["n"] += 1
            out = honest(x, y, *args, **kwargs)
            # Every product (including recomputes) differs macroscopically
            # and from every other — no majority can form.
            out = np.array(out, copy=True)
            out.reshape(-1)[0] += 100.0 * calls["n"]
            return out

        # ``a @ bsum`` inside abft_mismatch uses the operator, not the
        # np.matmul attribute, so the checksum side stays honest.
        monkeypatch.setattr(np, "matmul", flaky)
        with pytest.raises(IntegrityFault) as err:
            checked_matmul(a, b, policy=IntegrityPolicy(max_recomputes=2))
        assert err.value.site == "gemm"
        stats = integrity_stats()
        assert stats["detected:gemm"] == 1
        assert "corrected:gemm" not in stats
