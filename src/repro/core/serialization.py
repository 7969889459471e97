"""**Partial serialization** optimisation (paper Section 3.5.1, Fig. 5).

An input batch ``BD x C x n x n`` is subdivided by a factor ``s`` into
``s x s`` spatial chunks of ``n/s x n/s``.  The chunks are processed
*serially* with a DC compressor compiled for the chunk resolution, so the
``LHS``/``RHS`` operands shrink by ``s`` per side and the on-chip working
set by ``s*s`` — this is what lets 512x512 inputs compile on SN30 and IPU.

On CPU the serial loop is a latency artifact, not a memory necessity, so
``workers=`` optionally fans the independent chunk cells across the
shared thread pool (:mod:`repro.core.parallel`).  Each cell runs the
exact same per-chunk computation as the serial loop and lands in its
fixed ``(row, col)`` grid position, so the reassembled bytes are
identical to the serial ones regardless of scheduling.  The fan-out
steps aside for gradient-carrying inputs (the tape is built on the
calling thread) and while a fault injector or integrity policy is armed
(``resolve_workers`` collapses to 1).
"""

from __future__ import annotations

import repro.tensor as rt
from repro.core import parallel as parallel_mod
from repro.core.chop import DCTChopCompressor
from repro.core.dct import DEFAULT_BLOCK
from repro.errors import ConfigError, ShapeError, require_int
from repro.obs.profile import profiled
from repro.tensor import Tensor, is_grad_enabled, no_grad


class PartialSerializedCompressor:
    """DC compressor applied serially to ``s x s`` spatial subdivisions."""

    method = "ps"

    def __init__(
        self,
        height: int,
        width: int | None = None,
        *,
        cf: int = 4,
        s: int = 2,
        block: int = DEFAULT_BLOCK,
        fast: bool | None = None,
        workers: int | None = None,
    ) -> None:
        height = require_int("height", height)
        width = height if width is None else require_int("width", width)
        s = require_int("subdivision factor s", s)
        block = require_int("block", block)
        if height % s or width % s:
            raise ConfigError(f"resolution {height}x{width} not divisible by s={s}")
        if (height // s) % block or (width // s) % block:
            raise ConfigError(
                f"chunk resolution {height // s}x{width // s} must be a "
                f"multiple of block {block}"
            )
        if workers is not None:
            workers = require_int("workers", workers, minimum=0)
            if workers == 0:
                workers = parallel_mod.cpu_workers()
        self.height = height
        self.width = width
        self.s = s
        # Chunk *cells* are the PS parallel unit, so the inner compressor
        # stays serial — fanning rows inside a chunk and cells across the
        # pool at once would oversubscribe it.
        self._workers = workers
        # The device only ever sees the chunk-resolution compressor; the
        # tiled fast path applies per chunk, inside the serial loop (the
        # loop *is* PS — it bounds the working set to one chunk).
        self.inner = DCTChopCompressor(height // s, width // s, cf=cf, block=block, fast=fast)

    @property
    def cf(self) -> int:
        return self.inner.cf

    @property
    def block(self) -> int:
        return self.inner.block

    @property
    def ratio(self) -> float:
        return self.inner.ratio

    @property
    def num_chunks(self) -> int:
        return self.s * self.s

    @property
    def compressed_height(self) -> int:
        return self.inner.compressed_height * self.s

    @property
    def compressed_width(self) -> int:
        return self.inner.compressed_width * self.s

    def compressed_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        self._check(input_shape, self.height, self.width)
        return input_shape[:-2] + (self.compressed_height, self.compressed_width)

    @staticmethod
    def _check(shape: tuple[int, ...], h: int, w: int) -> None:
        if len(shape) < 2 or shape[-2] != h or shape[-1] != w:
            raise ShapeError(f"expected (..., {h}, {w}) input, got {shape}")

    def _chunks(self, t: Tensor, h: int, w: int):
        """Yield (row, col, chunk) views of the ``s x s`` subdivision."""
        ch, cw = h // self.s, w // self.s
        for r in range(self.s):
            for c in range(self.s):
                yield r, c, t[..., r * ch : (r + 1) * ch, c * cw : (c + 1) * cw]

    def _cell_workers(self, t: Tensor) -> int:
        """Worker count for one call (1 == the plain serial loop)."""
        workers = parallel_mod.resolve_workers(self._workers)
        if workers > 1 and t.requires_grad and is_grad_enabled():
            # The autograd tape is built on the calling thread.
            return 1
        return workers

    def _map_cells(self, cells: list, fn, workers: int) -> list:
        """Apply ``fn`` to every chunk cell, optionally across the pool.

        Results land at their cell's fixed list index, so reassembly
        order — and therefore the output bytes — never depends on thread
        scheduling.  Per-chunk work is byte-identical to the serial loop:
        the same ``inner`` call on the same view.
        """
        if workers <= 1:
            # The plain serial loop — on the calling thread, tape intact
            # for gradient-carrying inputs.
            return [fn(cell) for cell in cells]
        results: list = [None] * len(cells)

        def work(lo: int, hi: int) -> None:
            # Worker threads get fresh thread-local state; pin grad off so
            # a pool thread never starts a stray tape for chunk math.
            with no_grad():
                for i in range(lo, hi):
                    results[i] = fn(cells[i])

        parallel_mod.run_spans(
            work, parallel_mod.span_partition(len(cells), workers), workers
        )
        return results

    @profiled("core.ps.compress")
    def compress(self, x) -> Tensor:
        """Serially compress each chunk; chunks are reassembled in a grid so
        the compressed tensor keeps the input's spatial arrangement."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        self._check(x.shape, self.height, self.width)
        ch, cw = self.height // self.s, self.width // self.s
        cells = [
            x[..., r * ch : (r + 1) * ch, c * cw : (c + 1) * cw]
            for r in range(self.s)
            for c in range(self.s)
        ]
        parts = self._map_cells(cells, self.inner.compress, self._cell_workers(x))
        rows = [
            rt.concatenate(parts[r * self.s : (r + 1) * self.s], axis=-1)
            for r in range(self.s)
        ]
        return rt.concatenate(rows, axis=-2)

    @profiled("core.ps.decompress")
    def decompress(self, y) -> Tensor:
        y = y if isinstance(y, Tensor) else Tensor(y)
        self._check(y.shape, self.compressed_height, self.compressed_width)
        ch = self.inner.compressed_height
        cw = self.inner.compressed_width
        cells = [
            y[..., r * ch : (r + 1) * ch, c * cw : (c + 1) * cw]
            for r in range(self.s)
            for c in range(self.s)
        ]
        parts = self._map_cells(cells, self.inner.decompress, self._cell_workers(y))
        rows = [
            rt.concatenate(parts[r * self.s : (r + 1) * self.s], axis=-1)
            for r in range(self.s)
        ]
        return rt.concatenate(rows, axis=-2)

    def roundtrip(self, x) -> Tensor:
        return self.decompress(self.compress(x))

    def __repr__(self) -> str:
        return (
            f"PartialSerializedCompressor(height={self.height}, width={self.width}, "
            f"cf={self.cf}, s={self.s}, ratio={self.ratio:.2f})"
        )
