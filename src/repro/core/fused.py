"""Tiled fast path: batched block kernels for the compressor hot loop.

The paper's pitch is that DCT+Chop is "exactly two matrix multiplications"
— but the host-side reference realises ``Y = (M T_L) A (T_L^T M^T)`` with
dense ``n x n`` operands, an O(n^3)-per-plane computation even though the
block-diagonal structure only ever mixes values inside one ``8 x 8`` tile.
This module provides the O(n^2 * block) equivalent: reshape the plane into
``block x block`` tiles and apply one precomputed *fused* operator pair per
side, exactly like zfp's fixed-rate block codec and JPEG's tiled DCT
pipeline.

Per tile the computation is ``Y_t = (M_b T) A_t (T^T M_b^T)`` with
``(cf, block)`` / ``(block, cf)`` operands.  It is executed as two large
skinny GEMMs over all tiles at once (inner dimension ``block``), not as
thousands of tiny per-tile matmuls:

1. reshape ``(..., H, W) -> (..., nbh, B, nbw, B)`` and contract the last
   axis with ``enc_r`` in a single ``(M, B) @ (B, cf)`` GEMM;
2. transpose the row-in-block axis to the end and contract it with
   ``enc_l^T`` in a second ``(M', B) @ (B, cf)`` GEMM;
3. transpose/reshape back to the compressed plane layout.

Bit-identity with the dense path
--------------------------------
Both paths accumulate exactly the same nonzero products in the same
ascending-k order (the dense operand rows are zero outside one block, and
adding an exact zero never changes an IEEE-754 partial sum), so on most
shapes the tiled result is bit-identical to the dense one.  BLAS kernel
*selection*, however, depends on the GEMM dimensions, and edge-case
kernels can round differently — so bit-identity is shape-dependent, not
guaranteed a priori.  The compressors therefore run a seeded equivalence
probe the first time a new ``(direction, batch-shape, dtype)`` appears:
dense and tiled results are compared bit-for-bit on deterministic probe
data, and on any mismatch that shape is pinned to the dense path.  The
outcome is cached, so the guarantee "compressor output == dense-path
output, bitwise" holds for every shape by construction.

The dense path remains available as the oracle: per-compressor via
``fast=False``, globally via :func:`set_fast_path`, and temporarily via
the :func:`force_dense` context manager (the accelerator tracer uses it so
compiled graphs and modelled timings keep the paper's two-matmul shape).

Fused operators are cached per ``(block, cf, dtype)`` as read-only arrays
behind a lock; :func:`clear_fused_cache` resets the cache for tests.

Non-finite inputs
-----------------
The dense path multiplies other blocks' values by exact zeros, so a
non-finite value poisons its whole plane row (``0 * inf = nan``) — an
artifact of the dense realisation the tiled kernels do not reproduce.
The compressors therefore detect non-finite data (:func:`has_nonfinite`)
and pin those calls to the dense oracle, so fast and dense outputs agree
on NaN/Inf data too.  Detection exploits IEEE-754 propagation: any
product involving a non-finite operand is non-finite (``0 * inf`` and
``0 * nan`` are both NaN) and stays non-finite through summation, so a
non-finite plane always yields non-finite retained coefficients — the
*compressed-side* array (compress output / decompress input) is checked,
which is ``cf^2/block^2`` of the plane data.

One kernel family
-----------------
:func:`tiled_compress_nd` / :func:`tiled_decompress_nd` are the only
tiled kernels.  They write through ``out=`` buffers, take them from the
preallocated-buffer arena (:mod:`repro.core.arena`) when one is active,
and fan tile-row spans across the thread pool (:mod:`repro.core.parallel`).
Every call runs through them:

* each of their GEMMs goes through one hook, :func:`_gemm`, which is the
  ``gemm`` SDC fault site and, while an integrity policy is armed, the
  ABFT checksum guard (:mod:`repro.integrity.abft`); while either is
  armed the fan-out drops to one worker
  (:func:`repro.core.parallel.resolve_workers`), so fault events and
  checks stay on the calling thread in a fixed order;
* gradient-carrying inputs go through :func:`tiled_compress` /
  :func:`tiled_decompress`, an autograd adapter whose forward is the nd
  kernel and whose backward is the nd kernel in the other direction on
  the adjoint operators (:func:`_adjoint`).
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core import arena as arena_mod
from repro.core import parallel as parallel_mod
from repro.errors import ConfigError
from repro.faults.injector import corrupt_buffer
from repro.integrity import abft as _abft
from repro.integrity import policy as _integrity
from repro.tensor import Tensor
from repro.tensor.tensor import DEFAULT_DTYPE as _DEFAULT_DTYPE
from repro.tensor.tensor import Function

# ----------------------------------------------------------------------
# Fast-path switches
# ----------------------------------------------------------------------
_FAST_ENABLED = True
_dense_state = threading.local()


def set_fast_path(enabled: bool) -> bool:
    """Globally enable/disable the tiled fast path; returns the old value."""
    global _FAST_ENABLED
    previous, _FAST_ENABLED = _FAST_ENABLED, bool(enabled)
    return previous


def fast_path_enabled() -> bool:
    """The global default (per-compressor ``fast=`` overrides it)."""
    return _FAST_ENABLED


def dense_forced() -> bool:
    """True inside a :func:`force_dense` block (thread-local)."""
    return getattr(_dense_state, "depth", 0) > 0


@contextlib.contextmanager
def force_dense():
    """Run with the dense oracle path, regardless of flags.

    The accelerator tracer wraps program capture in this context so the
    compiled graph is the paper's two-matmul kernel — the tiled fast path
    is a host-side execution strategy, never a different device program.
    """
    _dense_state.depth = getattr(_dense_state, "depth", 0) + 1
    try:
        yield
    finally:
        _dense_state.depth -= 1


def fast_path_active(override: bool | None = None) -> bool:
    """Resolve the effective switch for one compressor instance."""
    if dense_forced():
        return False
    return _FAST_ENABLED if override is None else bool(override)


# ----------------------------------------------------------------------
# Probe bookkeeping (module-level counters; cheap, no registry coupling)
# ----------------------------------------------------------------------
_probe_stats = {"pass": 0, "fail": 0}
# Guards the counters: += on a shared dict is a read-modify-write, and
# concurrent probes (parallel hot path, threaded serving) would lose
# updates without it.  The compressors' per-instance verdict locks
# serialize the probes themselves; this lock keeps the global tally
# consistent across compressor instances.
_probe_lock = threading.Lock()


def record_probe(ok: bool) -> None:
    with _probe_lock:
        _probe_stats["pass" if ok else "fail"] += 1


def fast_path_stats() -> dict[str, int]:
    """``{"pass": ..., "fail": ...}`` equivalence-probe outcomes so far."""
    with _probe_lock:
        return dict(_probe_stats)


def has_nonfinite(arr: np.ndarray) -> bool:
    """True when ``arr`` contains NaN or ±Inf (cheap two-reduction check).

    ``min + max`` is non-finite iff the array holds a non-finite value —
    except for a near-overflow false positive (``|min| + |max|`` past the
    dtype maximum), which is safe here: callers route flagged data to the
    dense oracle, and the oracle is correct for every input.
    """
    if arr.size == 0 or arr.dtype.kind not in "fc":
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        extremes = arr.min() + arr.max()
    return not np.isfinite(extremes)


# ----------------------------------------------------------------------
# Fused operator cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FusedOps:
    """Per-block operator pair for one ``(block, cf)`` configuration.

    All arrays are contiguous and read-only, oriented the way the tiled
    kernels consume them (the row-side operators pre-transposed so both
    GEMMs contract the *last* axis):

    * ``enc_r``  — ``T^T M_b^T``      ``(block, cf)``  column transform
    * ``enc_lT`` — ``(M_b T)^T``      ``(block, cf)``  row transform
    * ``dec_r``  — ``M_b S^T``        ``(cf, block)``  column inverse
    * ``dec_lT`` — ``(S M_b^T)^T``    ``(cf, block)``  row inverse

    For the orthonormal DCT ``S = T^T`` and the four collapse to slices
    of ``T``; custom transforms keep all four distinct.
    """

    block: int
    cf: int
    enc_r: np.ndarray
    enc_lT: np.ndarray
    dec_r: np.ndarray
    dec_lT: np.ndarray


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def from_dense_operands(
    lhs: np.ndarray,
    rhs: np.ndarray,
    rhs_d: np.ndarray,
    lhs_d: np.ndarray,
    block: int,
    cf: int,
) -> FusedOps:
    """Slice the per-block operators out of the dense block-diagonal ones.

    The dense operands repeat one ``(cf, block)`` / ``(block, cf)`` block
    along the diagonal, so the top-left block *is* the fused operator —
    bitwise, by construction.  This also covers custom transforms, whose
    inverse is not the transpose.
    """
    return FusedOps(
        block=block,
        cf=cf,
        enc_r=_freeze(rhs[:block, :cf]),
        enc_lT=_freeze(lhs[:cf, :block].T),
        dec_r=_freeze(lhs_d[:cf, :block]),
        dec_lT=_freeze(rhs_d[:block, :cf].T),
    )


_FUSED_CACHE_CAPACITY = 64
_fused_cache: OrderedDict[tuple, FusedOps] = OrderedDict()
_fused_lock = threading.RLock()


def fused_operators(block: int = 8, cf: int = 4, dtype=np.float32) -> FusedOps:
    """The fused DCT operator pair for ``(block, cf, dtype)``, cached.

    Returned arrays are shared, read-only views — callers must not write
    to them (mutating would corrupt every compressor built afterwards).
    The cache is bounded and lock-guarded; see :func:`clear_fused_cache`.
    """
    if not 1 <= cf <= block:
        raise ConfigError(f"chop factor must be in [1, {block}], got {cf}")
    key = (int(block), int(cf), np.dtype(dtype).str)
    with _fused_lock:
        ops = _fused_cache.get(key)
        if ops is not None:
            _fused_cache.move_to_end(key)
            return ops
    # Build outside the lock (cheap, but keeps the critical section tiny);
    # a concurrent first call may build twice — the first insert wins.
    from repro.core.dct import dct_matrix

    t = dct_matrix(block).astype(dtype, copy=True)
    ops = FusedOps(
        block=int(block),
        cf=int(cf),
        enc_r=_freeze(t[:cf].T),
        enc_lT=_freeze(t[:cf].T),
        dec_r=_freeze(t[:cf]),
        dec_lT=_freeze(t[:cf]),
    )
    with _fused_lock:
        existing = _fused_cache.get(key)
        if existing is not None:
            _fused_cache.move_to_end(key)
            return existing
        _fused_cache[key] = ops
        while len(_fused_cache) > _FUSED_CACHE_CAPACITY:
            _fused_cache.popitem(last=False)
    return ops


def clear_fused_cache() -> None:
    """Drop every cached fused operator pair (test hook)."""
    with _fused_lock:
        _fused_cache.clear()


def fused_cache_size() -> int:
    with _fused_lock:
        return len(_fused_cache)


# ----------------------------------------------------------------------
# Tiled kernels: out= buffers, arena reuse, span fan-out
# ----------------------------------------------------------------------
def _gemm(a: np.ndarray, op: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """One tiled-kernel GEMM, routed through the integrity guards.

    Every GEMM the kernels issue comes through here: the ``gemm`` SDC
    site strikes the product buffer, or, while an ABFT policy is armed,
    :func:`repro.integrity.abft.checked_matmul` computes, verifies and
    corrects it.  Both yield the plain ``np.matmul`` bytes when nothing
    is corrupted, so the probe-backed bit-identity guarantee holds with
    guards on.  The product lands in ``out`` (an arena buffer, viewed as
    2-D) or, with ``out=None``, in a fresh array.  ``a`` is viewed as
    the 2-D ``(M, K)`` operand.
    """
    a = a.reshape(-1, op.shape[0])
    dst = None if out is None else out.reshape(-1, op.shape[1])
    policy = _integrity._POLICY
    if policy is not None and policy.abft:
        c = _abft.checked_matmul(a, op, policy=policy)
    else:
        c = corrupt_buffer("gemm", np.matmul(a, op, out=dst))
    if dst is not None and c is not dst:
        np.copyto(dst, c)
        return dst
    return c


def _ingest(arr: np.ndarray) -> np.ndarray:
    """Contiguous, with float64 cast to the library's float32 default.

    Every :class:`~repro.tensor.Tensor` op casts float64 results to
    float32, so the dense oracle never runs a float64 GEMM; the tiled
    kernels must not either, or they could not match it byte for byte.
    """
    if arr.dtype == np.float64:
        arr = arr.astype(_DEFAULT_DTYPE)
    return np.ascontiguousarray(arr)


def _scratch(arena, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray | None:
    """An arena scratch buffer, or ``None``: then each span allocates its
    GEMM products and permutes them in place."""
    return None if arena is None else arena.buffer(tag, shape, dtype)


def _span(buf: np.ndarray | None, lo: int, hi: int) -> np.ndarray | None:
    return None if buf is None else buf[lo:hi]


# Tile rows per in-place permutation pass: the bounce buffer stays in cache.
_SLAB_BYTES = 1 << 18


def _permute(z: np.ndarray, axes: tuple[int, ...], dst: np.ndarray | None) -> np.ndarray:
    """``z`` (C-contiguous, tile rows leading) with its axes permuted.

    Into ``dst`` when given, else in place, one cache-sized slab of rows
    at a time (``axes`` keeps rows first, so a slab permutes onto its own
    bytes).  A call then allocates only its two GEMM products; at 8x3x512²
    that stays under glibc's heap-trim threshold, so repeated (guarded)
    calls reuse their pages instead of faulting them in again.
    """
    view = z.transpose(axes)
    if dst is not None:
        np.copyto(dst, view)
        return dst
    step = max(1, _SLAB_BYTES // max(1, z[:1].nbytes))
    if len(z) <= step:  # one slab: a fresh copy is cheaper than a bounce
        return np.ascontiguousarray(view)
    bounce = np.empty(view[:step].shape, z.dtype)
    rows = z.reshape(len(z), -1)
    for lo in range(0, len(z), step):
        part = bounce[: len(view[lo:lo + step])]
        np.copyto(part, view[lo:lo + step])
        rows[lo:lo + len(part)] = part.reshape(len(part), -1)
    return z.reshape(view.shape)


def _output(arena, tag: str, shape: tuple[int, ...], dtype, out, workers: int):
    """The output buffer, or ``None``: a serial call without an arena
    returns its last GEMM product, permuted in place."""
    if out is None:
        if arena is not None:
            return arena.ring(tag, shape, dtype)
        return None if workers == 1 else np.empty(shape, dtype)
    if not isinstance(out, np.ndarray):
        raise ConfigError(f"out must be an ndarray, got {type(out).__name__}")
    if out.shape != shape or out.dtype != np.dtype(dtype):
        raise ConfigError(
            f"out has shape {out.shape} dtype {out.dtype}; kernel needs "
            f"shape {shape} dtype {np.dtype(dtype)}"
        )
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ConfigError("out must be C-contiguous and writable")
    return out


def _run(work, rows: int, workers: int, out, out_shape) -> np.ndarray:
    """Run ``work`` over the tile rows; it returns the output it wrote."""
    if out is None:
        return work(0, rows).reshape(out_shape)
    parallel_mod.run_spans(work, parallel_mod.span_partition(rows, workers), workers)
    return out


def _compress(x, ops: FusedOps, blocks: bool, workers: int, out) -> np.ndarray:
    block, cf = ops.block, ops.cf
    x = _ingest(x)
    lead = x.shape[:-2]
    nbh = x.shape[-2] // block
    nbw = x.shape[-1] // block
    rows = math.prod(x.shape[:-2]) * nbh
    rdtype = np.result_type(x.dtype, ops.enc_r.dtype)
    arena = arena_mod.current()
    g1 = _scratch(arena, "c.g1", (rows, block, nbw, cf), rdtype)
    s2 = _scratch(arena, "c.s2", (rows, nbw, cf, block), rdtype)
    g2 = _scratch(arena, "c.g2", (rows, nbw, cf, cf), rdtype)
    if blocks:
        # (r, c, q, p) -> (r, c, p, q): SG block layout.
        out_shape, out_4d, to_out = lead + (nbh * nbw, cf * cf), (rows, nbw, cf, cf), (0, 1, 3, 2)
    else:
        # (r, c, q, p) -> (r, p, c, q): dense compressed layout.
        out_shape, out_4d, to_out = lead + (cf * nbh, cf * nbw), (rows, cf, nbw, cf), (0, 3, 1, 2)
    out = _output(arena, "c.out" + (".blocks" if blocks else ""), out_shape, rdtype, out, workers)
    out_v = None if out is None else out.reshape(out_4d)
    z0 = x.reshape(rows, block, nbw, block)

    def work(lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        # Column transform (GEMM 1, K=block): (n*B*nbw, B) @ (B, cf).
        z = _gemm(z0[lo:hi], ops.enc_r, _span(g1, lo, hi)).reshape(n, block, nbw, cf)
        # Row transform (GEMM 2, K=block) on (r, b, c, q) -> (r, c, q, b),
        # the in-block row axis last -> (r, c, q, p).
        z = _gemm(_permute(z, (0, 2, 3, 1), _span(s2, lo, hi)), ops.enc_lT, _span(g2, lo, hi))
        return _permute(z.reshape(n, nbw, cf, cf), to_out, _span(out_v, lo, hi))

    return _run(work, rows, workers, out, out_shape)


def _decompress(
    y, ops: FusedOps, nbh: int, nbw: int, from_blocks: bool, workers: int, out
) -> np.ndarray:
    block, cf = ops.block, ops.cf
    y = _ingest(y)
    lead = y.shape[:-2]
    rows = math.prod(y.shape[:-2]) * nbh
    rdtype = np.result_type(y.dtype, ops.dec_r.dtype)
    arena = arena_mod.current()
    g1 = _scratch(arena, "d.g1", (rows, nbw, cf, block), rdtype)
    s1 = _scratch(arena, "d.s1", (rows, nbw, block, cf), rdtype)
    g2 = _scratch(arena, "d.g2", (rows, nbw, block, block), rdtype)
    out_shape = lead + (nbh * block, nbw * block)
    out = _output(arena, "d.out", out_shape, rdtype, out, workers)
    out_v = None if out is None else out.reshape(rows, block, nbw, block)
    if from_blocks:
        # (r, c, p, q); after GEMM 1 (r, c, p, bc) -> (r, c, bc, p).
        y4, to_rows = y.reshape(rows, nbw, cf, cf), (0, 1, 3, 2)
    else:
        # (r, p, c, q); after GEMM 1 (r, p, c, bc) -> (r, c, bc, p).
        y4, to_rows = y.reshape(rows, cf, nbw, cf), (0, 2, 3, 1)

    def work(lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        # Column inverse first (matches the dense evaluation order), on
        # either layout as stored: (n*nbw*cf, cf) @ (cf, B).
        z = _gemm(y4[lo:hi], ops.dec_r, _span(g1, lo, hi))
        # Row inverse (GEMM 2), in-block row axis last -> (r, c, bc, br).
        z = _permute(z.reshape(y4[lo:hi].shape[:3] + (block,)), to_rows, _span(s1, lo, hi))
        z = _gemm(z, ops.dec_lT, _span(g2, lo, hi))
        # (r, c, bc, br) -> (r, br, c, bc): the plane layout.
        return _permute(z.reshape(n, nbw, block, block), (0, 3, 1, 2), _span(out_v, lo, hi))

    return _run(work, rows, workers, out, out_shape)


def tiled_compress_nd(
    x: np.ndarray,
    ops: FusedOps,
    *,
    blocks: bool = False,
    workers: int = 1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``(..., H, W) -> (..., cf*nbh, cf*nbw)`` via two skinny GEMMs.

    With ``blocks=True`` the output is the SG block layout
    ``(..., nbh*nbw, cf*cf)`` instead — the same GEMMs, one fewer layout
    shuffle than compress-then-reshuffle.

    With ``workers > 1`` the tile-row range is split by
    :func:`repro.core.parallel.span_partition` and fanned across the
    thread pool; each span's GEMM has its own M dimension, so bit-identity
    to the dense oracle is re-proven per ``(shape, dtype, workers)`` by
    the compressor's probe before this path serves traffic.

    Buffers come from the active :class:`~repro.core.arena.Arena` when
    one is installed (zero steady-state allocations), else a call
    allocates its two GEMM products and permutes them in place (see
    :func:`_permute`).  An explicit ``out=`` must be C-contiguous,
    writable, and exactly the result shape/dtype.
    """
    return _compress(x, ops, blocks, workers, out)


def tiled_decompress_nd(
    y: np.ndarray,
    ops: FusedOps,
    nbh: int,
    nbw: int,
    *,
    from_blocks: bool = False,
    workers: int = 1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse of :func:`tiled_compress_nd` (``from_blocks`` takes SG layout;
    same buffer and worker contract)."""
    return _decompress(y, ops, nbh, nbw, from_blocks, workers, out)


# ----------------------------------------------------------------------
# Autograd adapter (tape-carrying inputs)
# ----------------------------------------------------------------------
def _adjoint(ops: FusedOps) -> FusedOps:
    """The operator pair of the two kernels' adjoint maps.

    Per tile, compress is ``Y = enc_lT^T A enc_r`` and decompress is
    ``A = dec_lT^T Y dec_r``.  The adjoint of compress,
    ``G -> enc_lT G enc_r^T``, is therefore a decompress with
    ``dec_lT = enc_lT^T`` and ``dec_r = enc_r^T`` (and vice versa): swap
    the sides and transpose.  For the orthonormal DCT that reproduces the
    original pair; a custom transform's adjoint is not its inverse.
    """
    return FusedOps(
        block=ops.block,
        cf=ops.cf,
        enc_r=_freeze(ops.dec_r.T),
        enc_lT=_freeze(ops.dec_lT.T),
        dec_r=_freeze(ops.enc_r.T),
        dec_lT=_freeze(ops.enc_lT.T),
    )


class _TiledCompress(Function):
    def forward(self, x, *, ops, blocks):
        self.save(ops, x.shape[-2] // ops.block, x.shape[-1] // ops.block, blocks)
        return _compress(x, ops, blocks, 1, None)

    def backward(self, grad):
        ops, nbh, nbw, blocks = self.saved
        with arena_mod.bypass():
            return (_decompress(grad, _adjoint(ops), nbh, nbw, blocks, 1, None),)


class _TiledDecompress(Function):
    def forward(self, y, *, ops, nbh, nbw, from_blocks):
        self.save(ops, from_blocks)
        return _decompress(y, ops, nbh, nbw, from_blocks, 1, None)

    def backward(self, grad):
        ops, from_blocks = self.saved
        with arena_mod.bypass():
            return (_compress(grad, _adjoint(ops), from_blocks, 1, None),)


def tiled_compress(x: Tensor, ops: FusedOps, *, blocks: bool = False) -> Tensor:
    """:func:`tiled_compress_nd` on the autograd tape.

    Forward is the serial nd kernel (the same bytes); backward is the nd
    decompress kernel on the adjoint operators.  Both run outside any
    arena: the result and its gradient outlive a ring slot's rotation.
    """
    with arena_mod.bypass():
        return _TiledCompress.apply(x, ops=ops, blocks=blocks)


def tiled_decompress(
    y: Tensor, ops: FusedOps, nbh: int, nbw: int, *, from_blocks: bool = False
) -> Tensor:
    """:func:`tiled_decompress_nd` on the autograd tape (see
    :func:`tiled_compress`)."""
    with arena_mod.bypass():
        return _TiledDecompress.apply(
            y, ops=ops, nbh=nbh, nbw=nbw, from_blocks=from_blocks
        )


def probe_input(shape: tuple[int, ...], dtype, *, cf: int, block: int, direction: str) -> np.ndarray:
    """Deterministic probe data for one equivalence check.

    Seeded from the full call shape and the compressor configuration so
    every process, thread, and run probes with identical bytes.
    """
    tag = 0 if direction == "compress" else 1
    seed = [tag, int(cf), int(block), *(int(d) for d in shape)]
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape) * 8.0
    return data.astype(dtype, copy=False)
