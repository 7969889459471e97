"""Guards end-to-end: silent wrongness with guards off, detection with them on."""

import numpy as np
import pytest

from repro.accel import compile_program
from repro.core import make_compressor
from repro.errors import IntegrityFault
from repro.faults import FaultInjector, FaultPlan
from repro.integrity import detected, integrity_guards, integrity_stats
from repro.resilience import ResilientCompressor
from repro.tensor import Tensor


def _gemm_plan(seed=2):
    return FaultPlan(seed=seed).add("gemm", "sdc_bit_flip", after=0, times=1)


class TestGemmGuard:
    """Every method and direction strikes and guards the same GEMM hook.

    The dc-compress case keeps unscaled normal data.  The other cases
    scale their inputs to |x| < 1 so no GEMM product lies in [1, 2): an
    exponent-MSB flip there yields Inf or NaN, which a compress would
    reroute to the dense oracle instead of serving it
    (:meth:`test_guards_on_corrects_a_non_finite_flip` covers that flip).
    """

    # GEMMs per call: two per plane batch, two per chunk for PS (s=2).
    GEMMS = {"dc": 2, "ps": 8, "sg": 2}

    def _case(self, rng, method, direction):
        comp = make_compressor(32, method=method, cf=4, fast=True)
        x = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)
        if (method, direction) != ("dc", "compress"):
            x *= np.float32(0.05)
        if direction == "decompress":
            x = comp.compress(x).numpy()
        run = getattr(comp, direction)
        return run, x, run(x).numpy()

    @pytest.mark.parametrize("direction", ["compress", "decompress"])
    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    def test_guards_off_serves_wrong_bytes_silently(self, rng, method, direction):
        # The failure mode the whole package exists for: without guards the
        # flip neither raises nor perturbs control flow — the output is
        # just wrong.
        run, x, clean = self._case(rng, method, direction)
        with FaultInjector(_gemm_plan()) as inj:
            corrupt = run(x).numpy()
        assert len(inj.records) == 1
        assert inj.events_seen("gemm") == self.GEMMS[method]
        assert np.isfinite(corrupt).all()
        assert not np.array_equal(corrupt, clean)
        assert detected() == 0

    @pytest.mark.parametrize("direction", ["compress", "decompress"])
    @pytest.mark.parametrize("method", ["dc", "ps", "sg"])
    def test_guards_on_corrects_the_same_flip(self, rng, method, direction):
        run, x, clean = self._case(rng, method, direction)
        with integrity_guards(), FaultInjector(_gemm_plan()) as inj:
            guarded = run(x).numpy()
        assert len(inj.records) == 1
        assert inj.events_seen("gemm") == self.GEMMS[method]
        assert guarded.tobytes() == clean.tobytes()      # bit-identical, corrected
        stats = integrity_stats()
        assert stats["detected:gemm"] == 1
        assert stats["corrected:gemm"] == 1

    def test_guards_on_corrects_a_non_finite_flip(self):
        # Every first-GEMM product is 4 / sqrt(8) ~ 1.41, in [1, 2), so the
        # flip turns whichever element it strikes into Inf or NaN.
        comp = make_compressor(32, cf=4, fast=True)
        y = np.zeros((2, 1, 16, 16), np.float32)
        y[..., 0::4] = 4.0                  # DC coefficient of every tile row
        clean = comp.decompress(y).numpy()
        with FaultInjector(_gemm_plan()):
            silent = comp.decompress(y).numpy()
        assert not np.isfinite(silent).all()
        with integrity_guards(), FaultInjector(_gemm_plan()) as inj:
            guarded = comp.decompress(y).numpy()
        assert len(inj.records) == 1
        assert guarded.tobytes() == clean.tobytes()
        assert integrity_stats()["corrected:gemm"] == 1

    def test_tape_carrying_calls_take_the_same_hook(self, rng):
        # Training GEMMs are guarded too: the forward flip is corrected and
        # the adjoint backward, whose two GEMMs also pass the hook, still
        # yields the dense gradient.
        data = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)
        comp = make_compressor(32, cf=4, fast=True)
        clean = comp.compress(data).numpy()
        x = Tensor(data.copy(), requires_grad=True)
        with integrity_guards(), FaultInjector(_gemm_plan()) as inj:
            y = comp.compress(x)
            y.sum().backward()
        assert len(inj.records) == 1
        assert inj.events_seen("gemm") == 4
        assert y.numpy().tobytes() == clean.tobytes()
        assert integrity_stats()["corrected:gemm"] == 1
        want = Tensor(data.copy(), requires_grad=True)
        make_compressor(32, cf=4, fast=False).compress(want).sum().backward()
        np.testing.assert_allclose(x.grad, want.grad, atol=1e-5)

    def test_guards_idle_are_byte_identical(self, rng):
        comp = make_compressor(32, cf=4, fast=True)
        x = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)
        clean = comp.compress(x).numpy()
        with integrity_guards():
            guarded = comp.compress(x).numpy()
        assert guarded.tobytes() == clean.tobytes()
        assert detected() == 0


class TestDeviceOutputGuard:
    def test_digest_mismatch_raises_integrity_fault(self, rng):
        comp = make_compressor(32, cf=4)
        example = np.zeros((2, 1, 32, 32), np.float32)
        program = compile_program(comp.compress, example, "ipu")
        x = rng.standard_normal(example.shape).astype(np.float32)
        plan = FaultPlan(seed=4).add("device_output", "sdc_bit_flip", after=0, times=1)
        with integrity_guards(), FaultInjector(plan):
            with pytest.raises(IntegrityFault) as err:
                program.run(x)
        assert err.value.site == "device_output"
        assert err.value.platform == "ipu"
        assert integrity_stats()["detected:device_output"] == 1

    def test_guards_off_flip_propagates(self, rng):
        comp = make_compressor(32, cf=4)
        example = np.zeros((2, 1, 32, 32), np.float32)
        program = compile_program(comp.compress, example, "ipu")
        x = rng.standard_normal(example.shape).astype(np.float32)
        clean = np.asarray(program.run(x))
        plan = FaultPlan(seed=4).add("device_output", "sdc_bit_flip", after=0, times=1)
        with FaultInjector(plan):
            sick = np.asarray(program.run(x))
        assert not np.array_equal(sick, clean)


class TestResilientRecovery:
    def test_integrity_fault_feeds_the_retry_ladder(self, rng):
        # IntegrityFault subclasses TransientDeviceError on purpose:
        # detection -> recompute via the existing retry machinery, and the
        # caller receives the honest bytes.
        rc = ResilientCompressor(32, platform="ipu", batch=2, channels=1)
        x = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)
        clean = rc.compress(x)
        plan = FaultPlan(seed=6).add("device_output", "sdc_bit_flip", after=0, times=1)
        with integrity_guards(), FaultInjector(plan) as inj:
            recovered = rc.compress(x)
        assert len(inj.records) == 1
        assert np.array_equal(recovered.numpy(), clean.numpy())
        assert integrity_stats()["detected:device_output"] == 1
        events = [e.action for e in rc.log.events]
        assert "fault" in events and "recovered" in events
