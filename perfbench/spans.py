"""In-memory spans around the program's layer boundaries (traced runs only).

:func:`instrument` swaps the calls at each layer boundary for thin
wrappers that record a span — name, start, end, parent span, request id —
into a :class:`Recorder`, and puts the originals back on exit.  Nothing
under ``src/`` changes: class methods are replaced on the class, and a
module-level function is replaced in every ``repro.*`` module namespace
that holds it (``from x import f`` copies the reference).

Wrappers only record while ``recorder.enabled`` is set; the caller sets it
around the timed calls, so output checks and input generation between
them leave no spans.  :func:`layer_metrics` turns the spans into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

from perfbench import stats

# Span record layout (a list, not an object: the wrappers run on every
# metric update, so recording must stay cheap).
NAME, START, END, PARENT, RID, ATTR = range(6)

# Span names that hold compressor work; spans inside them are not
# "outer" compressor calls.
COMPRESSOR_SPANS = ("core.compress", "core.decompress")


class Recorder:
    """Spans of one traced run, appended in start order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = False
        self.rid = None             # request id stamped on new spans

    def wrap(self, name: str, fn, *, attr=None, rid=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``attr(args, kwargs, result)`` computes the span's attribute;
        ``rid(args, kwargs)`` names the request the call handles, which
        spans opened inside it inherit.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            outer_rid = self.rid
            if rid is not None:
                self.rid = rid(args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.rid, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                self.rid = outer_rid
            if attr is not None:
                span[ATTR] = attr(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def recording(self, rid=None):
        """Record spans for the calls made inside the block."""
        self.enabled, self.rid = True, rid
        try:
            yield
        finally:
            self.enabled, self.rid = False, None


# ----------------------------------------------------------------------
# Layer boundaries
# ----------------------------------------------------------------------
def _compressor_attr(args, kwargs, result):
    """``(method, cf, s, planes, n)`` of one compressor call."""
    comp, x = args[0], args[1]
    planes = 1
    for d in x.shape[:-2]:
        planes *= d
    return (comp.method, comp.cf, getattr(comp, "s", 1), planes, comp.height)


def _batch_size(args, kwargs, result):
    return len(args[0])


def _cache_hit(args, kwargs, result):
    return result is not None


def _request_rid(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs["request"]
    return request.rid


def _method_targets():
    """``(span name, class, attribute, attr fn, rid fn)`` for each method."""
    from repro.accel.compiler import CompiledProgram
    from repro.core.chop import DCTChopCompressor
    from repro.core.scatter_gather import ScatterGatherCompressor
    from repro.core.serialization import PartialSerializedCompressor
    from repro.fleet.ring import HashRing
    from repro.fleet.tenants import TenantAdmission
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.resilience.compressor import ResilientCompressor
    from repro.resilience.retry import RetryPolicy
    from repro.serve.batcher import Batch, DynamicBatcher
    from repro.serve.plan_cache import CompiledPlanCache
    from repro.serve.scheduler import Scheduler
    from repro.serve.service import CompressionService

    out = []
    for cls in (DCTChopCompressor, PartialSerializedCompressor, ScatterGatherCompressor):
        out.append(("core.compress", cls, "compress", _compressor_attr, None))
        out.append(("core.decompress", cls, "decompress", _compressor_attr, None))
    # The tiled-vs-dense choice and the equivalence probe are not public:
    # they live behind the compressor's own kernel methods.
    out += [
        ("core.kernel.dense", DCTChopCompressor, "_compress_dense", None, None),
        ("core.kernel.dense", DCTChopCompressor, "_decompress_dense", None, None),
        ("core.probe", DCTChopCompressor, "_probe", None, None),
        ("resilience.executor_init", ResilientCompressor, "__init__", None, None),
        ("resilience.run", ResilientCompressor, "compress", None, None),
        ("resilience.run", ResilientCompressor, "decompress", None, None),
        ("resilience.retry", RetryPolicy, "delay", None, None),
        ("accel.run", CompiledProgram, "run", None, None),
        ("serve.plan_cache.get", CompiledPlanCache, "get", _cache_hit, None),
        ("serve.batcher", DynamicBatcher, "add", None, None),
        ("serve.batcher", DynamicBatcher, "due", None, None),
        ("serve.scheduler", Scheduler, "pick", None, None),
        ("serve.scheduler", Scheduler, "assign", None, None),
        ("serve.batch", Batch, "padded", _batch_size, None),
        ("serve.submit", CompressionService, "submit", None, _request_rid),
        ("serve.poll", CompressionService, "poll", None, None),
        ("serve.drain", CompressionService, "drain", None, None),
        ("serve.oneshot", CompressionService, "compress_one", None, None),
        ("serve.oneshot", CompressionService, "decompress_one", None, None),
        ("obs.metric", Counter, "inc", None, None),
        ("obs.metric", Gauge, "set", None, None),
        ("obs.metric", Histogram, "observe", None, None),
        ("fleet.route", HashRing, "route", None, None),
        ("fleet.admit", TenantAdmission, "admit", None, None),
        ("fleet.snapshot", CompiledPlanCache, "export_snapshot", None, None),
        ("fleet.snapshot", CompiledPlanCache, "restore", None, None),
    ]
    return out


def _function_targets():
    """``(span name, function)`` for module-level layer entry points."""
    from repro.accel import compiler
    from repro.core import api, fused
    from repro.integrity import abft
    from repro.resilience import ladder

    return [
        ("core.build", api.make_compressor),
        ("core.kernel.tiled", fused.tiled_compress),
        ("core.kernel.tiled", fused.tiled_decompress),
        ("core.kernel.tiled", fused.tiled_compress_nd),
        ("core.kernel.tiled", fused.tiled_decompress_nd),
        ("resilience.ladder", ladder.compile_with_ladder),
        ("accel.compile", compiler.compile_program),
        ("integrity.abft", abft.checked_matmul),
    ]


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Install the layer wrappers for the duration of the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for name, cls, attr_name, attr, rid in _method_targets():
            original = cls.__dict__[attr_name]
            undo.append((cls, attr_name, original))
            setattr(cls, attr_name, recorder.wrap(name, original, attr=attr, rid=rid))
        for name, fn in _function_targets():
            wrapper = recorder.wrap(name, fn)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if not (module_name == "repro" or module_name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, key, fn))
                        setattr(module, key, wrapper)
        yield recorder
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        stats.self_time(span[START], span[END], children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def _under(spans, names) -> list[bool]:
    """Whether each span has an ancestor whose name is in ``names``."""
    flags = [False] * len(spans)
    for i, span in enumerate(spans):
        p = span[PARENT]
        if p >= 0:
            flags[i] = flags[p] or spans[p][NAME] in names
    return flags


def _plane_model(attr, direction: str) -> tuple[float, float]:
    """Paper-model FLOPs and computed bytes moved for one compressor call.

    Both come from :mod:`repro.core.flops` (Eq. 5 / Eq. 7 and the Fig. 4
    operand sizes) per plane, times the planes in the call.  PS runs the
    chunk-resolution compressor on ``s*s`` chunks per plane.
    """
    from repro.core import flops

    method, cf, s, planes, n = attr
    chunks, side = (s * s, n // s) if method == "ps" else (1, n)
    sizes = flops.operand_sizes(side, cf)
    if direction == "compress":
        per_chunk = flops.compression_flops(side, cf), sizes.compress_working_set
    else:
        per_chunk = flops.decompression_flops(side, cf), sizes.decompress_working_set
    return per_chunk[0] * chunks * planes, per_chunk[1] * chunks * planes


def layer_metrics(spans, *, wall_s: float, ops: int, counts: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced window.

    ``wall_s`` is the traced window's op time, ``ops`` the operations
    attempted in it.  ``counts`` carries values measured outside the
    spans (ratios from paired untraced runs, exact fleet counts).  Returns
    ``(metrics, report_lines)``; metrics map name -> (value, unit).
    """
    selfs = self_times(spans)
    in_compressor = _under(spans, COMPRESSOR_SPANS)
    in_side_work = _under(spans, ("core.probe", "accel.compile"))
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)

    def total(name, *, self_only=False, where=None):
        idx = [i for i in by_name.get(name, ()) if where is None or where(i)]
        if self_only:
            return sum(selfs[i] for i in idx), len(idx)
        return sum(spans[i][END] - spans[i][START] for i in idx), len(idx)

    def per_call_us(name, **kw):
        t, c = total(name, **kw)
        return t / c * 1e6 if c else 0.0

    def outer(i):
        return not in_compressor[i] and not in_side_work[i]

    m: dict[str, tuple[float, str]] = {}
    per_op = 1.0 / ops if ops else 0.0

    # core ------------------------------------------------------------
    c_t, c_n = total("core.compress", where=outer)
    d_t, d_n = total("core.decompress", where=outer)
    c_flops = c_bytes = d_flops = 0.0
    for i in by_name.get("core.compress", ()):
        if outer(i):
            fl, moved = _plane_model(spans[i][ATTR], "compress")
            c_flops += fl
            c_bytes += moved
    for i in by_name.get("core.decompress", ()):
        if outer(i):
            d_flops += _plane_model(spans[i][ATTR], "decompress")[0]
    m["core.compress_us"] = (c_t / c_n * 1e6 if c_n else 0.0, "us")
    m["core.decompress_us"] = (d_t / d_n * 1e6 if d_n else 0.0, "us")
    m["core.compress_gflops"] = (c_flops / c_t / 1e9 if c_t else 0.0, "GFLOP/s")
    m["core.decompress_gflops"] = (d_flops / d_t / 1e9 if d_t else 0.0, "GFLOP/s")
    m["core.compress_bytes_moved"] = (c_bytes / c_n if c_n else 0.0, "B")
    tiled = len(by_name.get("core.kernel.tiled", ()))
    dense = len(by_name.get("core.kernel.dense", ()))
    m["core.fast_path_share"] = (tiled / (tiled + dense) if tiled + dense else 0.0, "ratio")
    m["core.probes"] = (len(by_name.get("core.probe", ())) * per_op, "1/op")
    builds = len(by_name.get("core.build", ()))
    m["core.builds_per_request"] = (builds * per_op, "1/op")
    m["core.build_us"] = (per_call_us("core.build"), "us")

    # resilience --------------------------------------------------------
    batches = by_name.get("serve.batch", ())
    executors = len(by_name.get("resilience.executor_init", ()))
    m["resilience.executors_per_batch"] = (
        executors / len(batches) if batches else 0.0, "ratio"
    )
    m["resilience.ladder_us"] = (per_call_us("resilience.ladder", self_only=True), "us")
    m["resilience.retries"] = (float(len(by_name.get("resilience.retry", ()))), "count")

    # accel -------------------------------------------------------------
    m["accel.compiles"] = (len(by_name.get("accel.compile", ())) * per_op, "1/op")
    m["accel.compile_us"] = (per_call_us("accel.compile"), "us")
    m["accel.run_us"] = (per_call_us("accel.run", self_only=True), "us")

    # serve -------------------------------------------------------------
    lookups = by_name.get("serve.plan_cache.get", ())
    hits = sum(1 for i in lookups if spans[i][ATTR])
    m["serve.plan_cache_hit_ratio"] = (hits / len(lookups) if lookups else 0.0, "ratio")
    m["serve.plan_cache_hits"] = (float(hits), "count")
    m["serve.plan_cache_lookups"] = (float(len(lookups)), "count")
    m["serve.plan_cache_evictions"] = (
        float(counts.get("serve.plan_cache_evictions", 0)), "count"
    )
    m["serve.batch_size_mean"] = (
        sum(spans[i][ATTR] for i in batches) / len(batches) if batches else 0.0,
        "requests",
    )
    m["serve.batcher_us"] = (per_call_us("serve.batcher"), "us")
    m["serve.scheduler_us"] = (per_call_us("serve.scheduler"), "us")
    d_self, d_calls = 0.0, 0
    for name in ("serve.submit", "serve.poll", "serve.drain"):
        t, c = total(name, self_only=True)
        d_self, d_calls = d_self + t, d_calls + c
    m["serve.dispatch_self_us"] = (d_self / d_calls * 1e6 if d_calls else 0.0, "us")

    # obs ---------------------------------------------------------------
    updates = len(by_name.get("obs.metric", ()))
    m["obs.metric_updates_per_request"] = (updates * per_op, "1/op")
    m["obs.metric_update_us"] = (per_call_us("obs.metric"), "us")
    m["obs.tracer_overhead_ratio"] = (counts.get("obs.tracer_overhead_ratio", 0.0), "ratio")

    # fleet -------------------------------------------------------------
    m["fleet.route_us"] = (per_call_us("fleet.route"), "us")
    m["fleet.admit_us"] = (per_call_us("fleet.admit"), "us")
    m["fleet.polls_per_request"] = (len(by_name.get("serve.poll", ())) * per_op, "1/op")
    m["fleet.snapshot_us"] = (per_call_us("fleet.snapshot"), "us")
    m["fleet.spill_share"] = (counts.get("fleet.spill_share", 0.0), "ratio")
    m["fleet.replays"] = (float(counts.get("fleet.replays", 0)), "count")
    m["fleet.handoffs"] = (float(counts.get("fleet.handoffs", 0)), "count")

    # integrity ---------------------------------------------------------
    m["integrity.abft_calls"] = (len(by_name.get("integrity.abft", ())) * per_op, "1/op")
    m["integrity.abft_us"] = (per_call_us("integrity.abft"), "us")
    m["integrity.guard_overhead_ratio"] = (
        counts.get("integrity.guard_overhead_ratio", 0.0), "ratio"
    )

    # trace self-check --------------------------------------------------
    covered = stats.union_length([(s[START], s[END]) for s in spans if s[PARENT] < 0])
    m["trace.overhead_ratio"] = (counts.get("trace.overhead_ratio", 0.0), "ratio")
    m["trace.coverage"] = (covered / wall_s if wall_s else 0.0, "ratio")

    lines = _layer_table(spans, selfs, by_name, wall_s - covered, wall_s, ops)
    idle = sorted(name for name, (value, _) in m.items() if value == 0)
    if idle:
        lines.append(
            "read 0 because this workload does not exercise them: " + ", ".join(idle)
        )
    lines.append(
        f"kernel calls: {tiled} tiled, {dense} dense; "
        f"{len(by_name.get('core.probe', ()))} probes; {len(spans)} spans recorded"
    )
    lines.append(
        "core.*_gflops and core.compress_bytes_moved are computed from "
        "repro.core.flops (paper Eq. 5/7 and Fig. 4 operand sizes), not counted"
    )
    return m, lines


def _layer_table(spans, selfs, by_name, outside_s, wall_s, ops) -> list[str]:
    """Calls, inclusive and self time per span name, largest self time first."""
    rows = []
    for name, idx in sorted(by_name.items()):
        incl = sum(spans[i][END] - spans[i][START] for i in idx)
        own = sum(selfs[i] for i in idx)
        rows.append((own, name, len(idx), incl))
    rows.sort(reverse=True)
    lines = [
        f"{'span':28s} {'calls':>9s} {'incl ms':>10s} {'self ms':>10s} "
        f"{'self us/op':>11s} {'self share':>10s}"
    ]
    for own, name, calls, incl in rows:
        lines.append(
            f"{name:28s} {calls:9d} {incl * 1e3:10.2f} {own * 1e3:10.2f} "
            f"{own / ops * 1e6 if ops else 0.0:11.2f} {own / wall_s if wall_s else 0.0:10.3f}"
        )
    lines.append(
        f"{'(outside any span)':28s} {'':9s} {'':10s} {outside_s * 1e3:10.2f} "
        f"{outside_s / ops * 1e6 if ops else 0.0:11.2f} "
        f"{outside_s / wall_s if wall_s else 0.0:10.3f}"
    )
    return lines
