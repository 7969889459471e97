"""Graceful-degradation ladder for compile failures.

When a platform's toolchain rejects a compressor program
(:class:`~repro.errors.OutOfMemoryError`,
:class:`~repro.errors.UnsupportedOperatorError`), the ladder walks a
fixed sequence of increasingly drastic recoveries, mirroring what the
paper's authors did by hand:

1. **``ps`` rung** — switch to partial serialization and escalate the
   subdivision factor ``s`` (2 → 4 → 8).  This is exactly how the paper
   gets 512x512 onto the SN30 (Section 3.5.1).
2. **``shard`` rung** — split the batch across one deployment node's
   devices (:data:`repro.accel.multichip.NODE_SIZES`); each device
   compiles the smaller per-shard program.  Recovers GroqChip's
   batch-size ceiling.
3. **``fallback`` rung** — recompile on an alternate platform, ending at
   the gate-free ``cpu`` host.

Every attempt — failed or successful — is recorded in a
:class:`~repro.resilience.log.RecoveryLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.compiler import CompiledProgram, PlanKey, compile_program
from repro.accel.multichip import shard_counts
from repro.core.api import Compressor, shared_compressor
from repro.core.dct import DEFAULT_BLOCK
from repro.errors import CompileError, ConfigError
from repro.resilience.log import RecoveryLog

RUNGS = ("original", "ps", "shard", "fallback")


@dataclass
class LadderPolicy:
    """Which rungs the ladder may take, and in what shape."""

    allow_ps: bool = True
    ps_factors: tuple[int, ...] = (2, 4, 8)
    allow_shard: bool = True
    allow_fallback: bool = True
    fallback_platforms: tuple[str, ...] = ("ipu", "cs2", "sn30", "groq", "a100", "cpu")
    exclude_platforms: tuple[str, ...] = ()


@dataclass(frozen=True)
class Attempt:
    """One (rung, configuration) the ladder tries."""

    rung: str
    platform: str
    method: str
    s: int
    n_devices: int = 1

    def describe(self) -> str:
        bits = [f"{self.method}" + (f" s={self.s}" if self.method == "ps" else "")]
        if self.n_devices > 1:
            bits.append(f"x{self.n_devices} devices")
        return f"{self.rung}: {self.platform} " + ", ".join(bits)


@dataclass
class LadderResult:
    """A successfully compiled program plus how the ladder got there."""

    program: CompiledProgram
    comp: Compressor
    attempt: Attempt
    failures: list[tuple[Attempt, CompileError]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.attempt.rung != "original"


def _attempts(
    platform: str, method: str, s: int, batch: int, policy: LadderPolicy
) -> list[Attempt]:
    out = [Attempt("original", platform, method, s)]
    if policy.allow_ps:
        floor = s if method == "ps" else 0
        for factor in policy.ps_factors:
            if factor > floor:
                out.append(Attempt("ps", platform, "ps", factor))
    if policy.allow_shard:
        counts = shard_counts(platform, batch)
        if counts:
            n = counts[0]  # largest even shard → smallest per-device program
            out.append(Attempt("shard", platform, method, s, n_devices=n))
            if policy.allow_ps:
                for factor in policy.ps_factors:
                    out.append(Attempt("shard", platform, "ps", factor, n_devices=n))
    if policy.allow_fallback:
        for alt in policy.fallback_platforms:
            if alt != platform and alt not in policy.exclude_platforms:
                out.append(Attempt("fallback", alt, method, s))
    return [a for a in out if a.platform not in policy.exclude_platforms]


def compile_with_ladder(
    height: int,
    width: int | None = None,
    *,
    platform: str,
    method: str = "dc",
    cf: int = 4,
    s: int = 2,
    block: int = DEFAULT_BLOCK,
    batch: int = 100,
    channels: int = 3,
    direction: str = "compress",
    policy: LadderPolicy | None = None,
    log: RecoveryLog | None = None,
    cache=None,
) -> LadderResult:
    """Compile a compressor program, degrading until something fits.

    Returns a :class:`LadderResult` whose ``attempt`` records the rung
    that succeeded; raises the last :class:`CompileError` if every rung
    is exhausted.

    ``cache`` is an optional
    :class:`~repro.serve.plan_cache.CompiledPlanCache` (or anything with
    its ``get``/``put`` interface).  Each attempt consults it by
    :class:`~repro.accel.compiler.PlanKey` before tracing: cached plans
    skip compilation entirely, and cached *failures* skip the doomed
    re-trace — so a ladder walk that already resolved once replays in
    O(attempts) dictionary lookups.  Compressors come from
    :func:`~repro.core.api.shared_compressor`, so a replay builds none,
    and a recompile after an eviction traces the already-probed instance.
    """
    if direction not in ("compress", "decompress"):
        raise ConfigError(f"direction must be compress|decompress, got {direction!r}")
    policy = policy if policy is not None else LadderPolicy()
    # Explicit None check: an empty RecoveryLog is falsy (it has __len__).
    log = log if log is not None else RecoveryLog()
    failures: list[tuple[Attempt, CompileError]] = []
    last_exc: CompileError | None = None

    for attempt in _attempts(platform, method, s, batch, policy):
        if attempt.n_devices > 1 and batch % attempt.n_devices:
            continue
        shard = batch // attempt.n_devices
        comp = shared_compressor(
            height, width, method=attempt.method, cf=cf, s=attempt.s, block=block
        )
        in_shape = (shard, channels, height, width if width is not None else height)
        if direction == "compress":
            fn, example_shape = comp.compress, in_shape
        else:
            fn, example_shape = comp.decompress, comp.compressed_shape(in_shape)
        key = PlanKey.for_compressor(
            attempt.platform,
            example_shape,
            method=attempt.method,
            cf=cf,
            s=attempt.s,
            block=block,
            direction=direction,
        )
        program = cache.get(key) if cache is not None else None
        if isinstance(program, CompileError):
            # Deterministic toolchain: a remembered rejection needs no re-trace.
            failures.append((attempt, program))
            last_exc = program
            log.record(
                "fault",
                f"compile failed, cached ({attempt.describe()}): {program}",
                rung=attempt.rung,
                platform=attempt.platform,
                reason=program.reason or "",
            )
            continue
        if program is None:
            try:
                program = compile_program(
                    fn,
                    np.zeros(example_shape, np.float32),
                    attempt.platform,
                    name=f"{attempt.method}-{direction}-{attempt.platform}",
                    key=key,
                )
            except CompileError as exc:
                if cache is not None:
                    cache.put(key, exc)
                failures.append((attempt, exc))
                last_exc = exc
                log.record(
                    "fault",
                    f"compile failed ({attempt.describe()}): {exc}",
                    rung=attempt.rung,
                    platform=attempt.platform,
                    reason=exc.reason or "",
                )
                continue
            if cache is not None:
                cache.put(key, program)
        if attempt.rung != "original":
            log.record(
                "rung",
                f"degraded to {attempt.describe()}",
                rung=attempt.rung,
                platform=attempt.platform,
                method=attempt.method,
                s=attempt.s,
                n_devices=attempt.n_devices,
            )
            log.record("recovered", f"compiled after {len(failures)} failed attempt(s)")
        return LadderResult(program=program, comp=comp, attempt=attempt, failures=failures)

    log.record("gave_up", f"all {len(failures)} ladder attempts failed")
    assert last_exc is not None
    raise last_exc
