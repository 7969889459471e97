"""Preallocated buffer arena: the zero-allocation steady state.

The tiled fast-path kernels (:func:`repro.core.fused.tiled_compress_nd`
and :func:`~repro.core.fused.tiled_decompress_nd`) can write every
intermediate and their output through ``out=`` buffers.  With no arena
active they allocate each intermediate per call and free it as soon as
the next step has read it.  With an arena active (``with
arena.use(): ...``) buffers are keyed by ``(tag, shape, dtype)`` and
reused across calls, so a steady-state serving loop that sees the same
request shape repeatedly performs **zero per-request array allocations**
(Python object churn aside; see ``tests/core/test_arena.py`` for the
tracemalloc proof).

Two buffer classes, because their lifetimes differ:

* **Scratch** (:meth:`Arena.buffer`) — kernel intermediates, dead by the
  time the kernel returns.  One buffer per key, reused every call.
* **Ring** (:meth:`Arena.ring`) — kernel *outputs*, which the caller
  still holds after the kernel returns.  Each key rotates over ``slots``
  preallocated buffers, so a result stays valid until the same key is
  requested ``slots`` more times.  Callers that keep results longer must
  copy them out — the serving loop consumes each response before the
  next request, which is the intended shape of arena traffic.

Activation is **thread-local and off by default**: without an explicit
``use()`` the kernels behave exactly as before (fresh allocations,
bit-identical replay).  One :class:`Arena` must not be active on two
threads at once — buffers are shared scratch.  The parallel fast path is
safe *within* one call: worker spans write disjoint slices of the same
arena buffers handed out by the coordinating thread.  Gradient-carrying
calls bypass the arena: a result on the autograd tape, and its gradient,
must outlive ring rotation.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.errors import ConfigError

_active = threading.local()


def current() -> "Arena | None":
    """The arena active on this thread, or ``None``."""
    return getattr(_active, "arena", None)


@contextlib.contextmanager
def activate(arena: "Arena | None"):
    """Make ``arena`` (or ``None``) the active arena for this thread."""
    previous = current()
    _active.arena = arena
    try:
        yield arena
    finally:
        _active.arena = previous


def bypass():
    """Run with no arena, whatever is active (probes use this: probe
    shapes would otherwise reserve arena buffers production never needs)."""
    return activate(None)


class Arena:
    """Keyed preallocated buffers for the nd fast-path kernels."""

    def __init__(self, slots: int = 2) -> None:
        if slots < 1:
            raise ConfigError(f"ring slots must be >= 1, got {slots}")
        self.slots = int(slots)
        self._scratch: dict[tuple, np.ndarray] = {}
        self._rings: dict[tuple, list[np.ndarray]] = {}
        self._cursors: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0

    # -- activation ----------------------------------------------------
    def use(self):
        """``with arena.use(): ...`` — route kernel buffers through here."""
        return activate(self)

    @staticmethod
    def current() -> "Arena | None":
        return current()

    # -- buffers -------------------------------------------------------
    def buffer(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Scratch buffer for ``(tag, shape, dtype)``; reused every call."""
        key = (tag, tuple(int(d) for d in shape), np.dtype(dtype).str)
        buf = self._scratch.get(key)
        if buf is None:
            self.misses += 1
            buf = np.empty(key[1], dtype=np.dtype(dtype))
            self._scratch[key] = buf
        else:
            self.hits += 1
        return buf

    def ring(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Output buffer: rotates over ``slots`` arrays per key.

        The returned array is overwritten after ``slots`` further
        requests of the same key — copy it out to keep it longer.
        """
        key = (tag, tuple(int(d) for d in shape), np.dtype(dtype).str)
        ring = self._rings.get(key)
        if ring is None:
            self.misses += 1
            ring = [np.empty(key[1], dtype=np.dtype(dtype)) for _ in range(self.slots)]
            self._rings[key] = ring
            self._cursors[key] = 0
        else:
            self.hits += 1
        cursor = self._cursors[key]
        self._cursors[key] = (cursor + 1) % self.slots
        return ring[cursor]

    # -- introspection -------------------------------------------------
    def reserved_bytes(self) -> int:
        total = sum(b.nbytes for b in self._scratch.values())
        total += sum(b.nbytes for ring in self._rings.values() for b in ring)
        return total

    def clear(self) -> None:
        """Drop every reserved buffer (test hook)."""
        self._scratch.clear()
        self._rings.clear()
        self._cursors.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"Arena(slots={self.slots}, keys={len(self._scratch) + len(self._rings)}, "
            f"reserved={self.reserved_bytes()}B, hits={self.hits}, misses={self.misses})"
        )
