"""The three workloads: seeded inputs, set-up, one timed cycle, output checks.

Every workload is closed loop with one caller: the next call starts when
the previous one has returned.  A *cycle* is one pass over the workload's
fixed, seeded input set, so every cycle repeats the same units of work
under the same keys.

Only the program's calls sit inside the timers.  Input generation, object
construction between sessions and every output check run between timed
calls, and a check failure counts the operation as failed.

* ``kernel-bulk`` — compressor objects from ``make_compressor`` on
  ``8x3xnxn`` batches: compress, decompress, then compress again under
  ``integrity_guards``.  Outputs must equal the ``force_dense()`` oracle.
* ``serve-hot`` — a ``CompressionService`` driven request by request
  (``poll`` + ``submit``, then ``drain``) over ``synthetic_trace`` with a
  plan cache shared across sessions, then one-shot round trips through
  ``repro.core.compress``/``decompress`` with the service installed.
* ``fleet-churn`` — ``FleetRouter(4)`` sessions over ``multi_tenant_trace``
  with contended tenant quotas, a plan cache smaller than each worker's
  share of the key menu, and a two-crash worker storm.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from repro import core
from repro.core import force_dense, make_compressor
from repro.fleet import FleetRouter, TenantPolicy, multi_tenant_trace, worker_storm
from repro.fleet.faults import WorkerFaultPlan
from repro.integrity import IntegrityPolicy, integrity_guards
from repro.obs.trace import Tracer
from repro.serve import CompiledPlanCache, CompressionService, synthetic_trace

from perfbench import stats

_clock = time.perf_counter


@dataclass
class Tally:
    """What one run measured and checked, outside the spans.

    Every cycle repeats the same *units* of work (a compressor call, a
    serving session, a one-shot call, a fleet session) under keys that are
    stable across cycles.  Throughput is read over every repeat; the
    traced run's overhead ratios compare one pass at each unit's fastest
    repeat.  A unit key's first element names its kind.  Latency
    samples (a call, a request, a fleet session) are kept per cycle, every
    repeat of them, for :func:`perfbench.stats.latency_windows`.
    """

    attempted: int = 0
    served: int = 0
    shed: int = 0
    failed: int = 0
    cycles: int = 0
    busy_s: float = 0.0                 # sum of timed call durations
    unit_s: dict = field(default_factory=lambda: defaultdict(list))
    unit_bytes: dict = field(default_factory=dict)   # uncompressed plane bytes per pass
    unit_items: dict = field(default_factory=dict)   # requests (or round trips) per pass
    latency_s: list = field(default_factory=list)    # one list of samples per cycle
    problems: list = field(default_factory=list)

    def begin_cycle(self) -> None:
        self.cycles += 1
        self.latency_s.append([])

    def latency(self, seconds: float) -> None:
        self.latency_s[-1].append(seconds)

    def unit(self, key, seconds: float, nbytes: int, items: int = 1) -> None:
        self.unit_s[key].append(seconds)
        self.unit_bytes[key] = nbytes
        self.unit_items[key] = items
        self.busy_s += seconds

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 10:
            self.problems.append(message)

    def keys(self, kind=None) -> list:
        """Unit keys, all or of one kind."""
        return [k for k in self.unit_s if kind is None or k[0] == kind]

    def fast_busy_s(self, kind=None) -> float:
        """One pass over the units (of ``kind``), each at its fastest repeat."""
        return sum(min(self.unit_s[k]) for k in self.keys(kind))

    def busy_s_of(self, kind=None) -> float:
        """Time of every repeat of the units (of ``kind``)."""
        return sum(sum(self.unit_s[k]) for k in self.keys(kind))

    def mbps(self, kind=None) -> float:
        """Bytes of every repeat over the time of every repeat."""
        nbytes = sum(self.unit_bytes[k] * len(self.unit_s[k]) for k in self.keys(kind))
        return stats.mb_per_s(nbytes, self.busy_s_of(kind))

    def items_per_s(self, kind) -> float:
        items = sum(self.unit_items[k] * len(self.unit_s[k]) for k in self.keys(kind))
        return items / self.busy_s_of(kind)

    def merge(self, other: "Tally") -> None:
        for name in ("attempted", "served", "shed", "failed", "cycles", "busy_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, values in other.unit_s.items():
            self.unit_s[key].extend(values)
        self.unit_bytes.update(other.unit_bytes)
        self.unit_items.update(other.unit_items)
        self.latency_s.extend(other.latency_s)
        self.problems = (self.problems + other.problems)[:10]


def _digest(arr) -> tuple:
    a = np.ascontiguousarray(arr.numpy() if hasattr(arr, "numpy") else arr)
    return a.shape, a.dtype.str, hashlib.sha256(a).digest()


def _timed(recorder, rid, fn, *args, **kwargs):
    """Call ``fn`` once; returns ``(result, seconds)``, recording if traced."""
    if recorder is None:
        t0 = _clock()
        out = fn(*args, **kwargs)
        return out, _clock() - t0
    with recorder.recording(rid):
        t0 = _clock()
        out = fn(*args, **kwargs)
        dt = _clock() - t0
    return out, dt


def _attempt(tally, n_ops: int, label: str, recorder, rid, fn, *args, **kwargs):
    """:func:`_timed`, counting a raising call as ``n_ops`` failed operations.

    The benchmark must keep going and report: an exception from the program
    is a result (``failed_share``), not a crash of the measurement.
    Returns ``(None, None)`` after a failure.
    """
    try:
        return _timed(recorder, rid, fn, *args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - boundary: record and continue
        tally.fail(n_ops, f"{label} raised {type(exc).__name__}: {exc}")
        return None, None


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    why = ""
    #: Whether a repro ``Tracer`` can be attached (obs.tracer_overhead_ratio).
    traceable = False
    #: Report lines: unit kind -> (name, unit) of its rate; MB/s or items/s.
    report: dict = {}
    #: What one latency sample is.
    latency_sample = ""

    def __init__(self, seed: int, scale: str = "full") -> None:
        if scale not in ("full", "tiny"):
            raise ValueError(f"scale must be full|tiny, got {scale!r}")
        self.seed = seed
        self.tiny = scale == "tiny"

    def make_inputs(self, *, first_only: bool = False) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def first_output(self) -> float:
        """Produce the first output; returns the monotonic time it came back.

        Raises :class:`CheckFailed` if that output is wrong.
        """
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Benchmark-side reference data, built before anything is timed."""

    def cycle(self, tally: Tally, recorder=None, repro_tracer: bool = False) -> None:
        raise NotImplementedError

    def exact_counts(self) -> dict:
        return {}

    def rebind(self) -> bool:
        """Rebuild objects that captured program methods before tracing.

        A compiled program keeps the bound method it was compiled from, so
        programs cached before :func:`perfbench.spans.instrument` would run
        unwrapped.  Returns True when something was rebuilt and a warm-up
        cycle is needed before recording.
        """
        return False


class CheckFailed(Exception):
    """The program's output differed from its reference."""


# ----------------------------------------------------------------------
class KernelBulk(Workload):
    name = "kernel-bulk"
    why = "fused/tiled kernels do almost all the work; serving layers do none"
    report = {
        "compress": ("kernel.compress_mbps", "MB/s"),
        "decompress": ("kernel.decompress_mbps", "MB/s"),
        "guarded_compress": ("kernel.guarded_compress_mbps", "MB/s"),
    }
    latency_sample = "one compressor call"

    def make_inputs(self, *, first_only: bool = False) -> None:
        rng = np.random.default_rng(self.seed)
        sizes = (32, 16) if self.tiny else (512, 256)
        batch = 2 if self.tiny else 8
        # The seed draws the data; the slot order is fixed, so every seed
        # does the same work in the same order (kernel time does not depend
        # on the values, and allocation order would move peak_rss_mb).
        self.slots = list(itertools.product(sizes, ("dc", "ps", "sg"), (2, 4, 7)))
        if first_only:
            sizes = sizes[:1]
        self.inputs = {
            n: rng.standard_normal((batch, 3, n, n)).astype(np.float32) for n in sizes
        }

    def setup(self) -> None:
        self.comps = {
            slot: make_compressor(slot[0], method=slot[1], cf=slot[2]) for slot in self.slots
        }

    def _oracle(self, slot) -> tuple:
        comp, x = self.comps[slot], self.inputs[slot[0]]
        with force_dense():
            y = comp.compress(x)
            z = comp.decompress(y)
        return _digest(y), _digest(z)

    def first_output(self) -> float:
        slot = self.slots[0]
        y = self.comps[slot].compress(self.inputs[slot[0]])
        done = time.monotonic()
        if _digest(y) != self._oracle(slot)[0]:
            raise CheckFailed(f"first compress {slot} differs from force_dense()")
        return done

    def prepare_checks(self) -> None:
        self.expected = {slot: self._oracle(slot) for slot in self.slots}

    def _timed_call(self, tally, leg, slot, x, recorder, fn, *args):
        """One compressor call as its own unit and latency sample."""
        out, dt = _attempt(tally, 1, f"{leg} {slot}", recorder, slot, fn, *args)
        if out is not None:
            tally.unit((leg, slot), dt, x.nbytes)
            tally.latency(dt)
        return out

    def cycle(self, tally: Tally, recorder=None, repro_tracer: bool = False) -> None:
        tally.begin_cycle()
        for slot in self.slots:
            comp, x = self.comps[slot], self.inputs[slot[0]]
            want_y, want_z = self.expected[slot]
            tally.attempted += 2
            y = self._timed_call(tally, "compress", slot, x, recorder, comp.compress, x)
            if y is None:
                tally.fail(1, f"decompress {slot} skipped: its compress raised")
                continue
            if _digest(y) == want_y:
                tally.served += 1
            else:
                tally.fail(1, f"compress {slot} differs from force_dense()")
            z = self._timed_call(tally, "decompress", slot, x, recorder, comp.decompress, y)
            if z is None:
                continue
            if _digest(z) == want_z:
                tally.served += 1
            else:
                tally.fail(1, f"decompress {slot} differs from force_dense()")
        with integrity_guards(IntegrityPolicy()):
            for slot in self.slots:
                comp, x = self.comps[slot], self.inputs[slot[0]]
                tally.attempted += 1
                y = self._timed_call(
                    tally, "guarded_compress", slot, x, recorder, comp.compress, x
                )
                if y is None:
                    continue
                if _digest(y) == self.expected[slot][0]:
                    tally.served += 1
                else:
                    tally.fail(1, f"guarded compress {slot} differs from force_dense()")


# ----------------------------------------------------------------------
class _Oracle:
    """Directly built compressors as the reference for served outputs."""

    def __init__(self) -> None:
        self._comps: dict[tuple, object] = {}
        self._outputs: dict[tuple, np.ndarray] = {}

    def comp(self, h, w, method, cf, s):
        key = (h, w, method, cf, s)
        comp = self._comps.get(key)
        if comp is None:
            comp = self._comps[key] = make_compressor(h, w, method=method, cf=cf, s=s)
        return comp

    def served(self, tag, response) -> np.ndarray:
        """Host compress of the request at its *resolved* ladder attempt."""
        req, attempt = response.request, response.attempt
        method = attempt.method if attempt is not None else req.method
        s = attempt.s if attempt is not None else req.s
        key = (tag, req.rid, method, s, req.cf)
        out = self._outputs.get(key)
        if out is None:
            _, h, w = req.image.shape
            comp = self.comp(h, w, method, req.cf, s)
            out = self._outputs[key] = comp.compress(req.image[None]).numpy()[0]
        return out


def _check_responses(tally: Tally, oracle: _Oracle, tag, responses) -> None:
    for r in responses:
        if np.array_equal(r.output, oracle.served(tag, r)):
            tally.served += 1
        else:
            tally.fail(1, f"{tag} request {r.request.rid}: output differs from a direct compressor")


def _check_accounting(tally: Tally, tag, attempted, served, shed, failed) -> None:
    if served + shed + failed != attempted:
        tally.fail(
            max(1, attempted - served - shed - failed),
            f"{tag}: served {served} + shed {shed} + failed {failed} != attempted {attempted}",
        )


# ----------------------------------------------------------------------
class ServeHot(Workload):
    name = "serve-hot"
    why = "plan lookups almost all hit and batches are small: per-request overhead dominates"
    traceable = True
    report = {
        "session": ("serve.rps", "requests/s"),
        "oneshot": ("serve.oneshot_rps", "round trips/s"),
    }
    latency_sample = "one trace request, submit to the call that returned it"

    def make_inputs(self, *, first_only: bool = False) -> None:
        n_chunks, n_requests = (2, 64) if self.tiny else (16, 250)
        if first_only:
            n_chunks = 1
        self.chunks = [
            synthetic_trace(n_requests, seed=self.seed * 100 + i) for i in range(n_chunks)
        ]
        self.n_oneshot = 8 if self.tiny else 128

    def setup(self) -> None:
        self.cache = CompiledPlanCache()
        self.oneshot = CompressionService(cache=self.cache)
        self.oracle = _Oracle()
        self._oneshot_want: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def first_output(self) -> float:
        svc = CompressionService(cache=self.cache)
        for req in self.chunks[0]:
            out = svc.poll(req.arrival) + svc.submit(req)
            if out:
                break
        else:
            out = svc.drain()
        done = time.monotonic()
        probe = Tally()
        _check_responses(probe, self.oracle, 0, out[:1])
        if probe.failed:
            raise CheckFailed(probe.problems[0])
        return done

    def rebind(self) -> bool:
        self.cache = CompiledPlanCache()
        self.oneshot = CompressionService(cache=self.cache)
        return True

    def _session(self, tally: Tally, i: int, recorder, repro_tracer: bool) -> None:
        chunk = self.chunks[i]
        svc = CompressionService(
            cache=self.cache, tracer=Tracer(seed=i) if repro_tracer else None
        )
        started: dict[int, float] = {}
        responses = []
        busy = 0.0

        def call(rid, fn, *args):
            nonlocal busy
            t0 = _clock()
            out, dt = _timed(recorder, rid, fn, *args)
            busy += dt
            for r in out:
                tally.latency(t0 + dt - started[r.request.rid])
            responses.extend(out)

        tally.attempted += len(chunk)
        try:
            for req in chunk:
                call(None, svc.poll, req.arrival)
                started[req.rid] = _clock()
                call(req.rid, svc.submit, req)
            call(None, svc.drain)
        except Exception as exc:  # noqa: BLE001 - boundary: record and continue
            lost = len(chunk) - len(responses) - len(svc.shed) - len(svc.failures)
            tally.fail(lost, f"chunk {i} raised {type(exc).__name__}: {exc}")
            _check_responses(tally, self.oracle, i, responses)
            return
        nbytes = sum(r.request.image.nbytes for r in responses)
        tally.unit(("session", i), busy, nbytes, len(responses))
        _check_responses(tally, self.oracle, i, responses)
        n_failed = len(svc.failures)
        if n_failed:
            tally.fail(n_failed, f"chunk {i}: {n_failed} FailedRequest(s)")
        tally.shed += len(svc.shed)
        _check_accounting(tally, f"chunk {i}", len(chunk), len(responses), len(svc.shed), n_failed)

    def _oneshot_expected(self, j, x, cf) -> tuple[np.ndarray, np.ndarray]:
        want = self._oneshot_want.get(j)
        if want is None:
            comp = self.oracle.comp(x.shape[-2], x.shape[-1], "dc", cf, 2)
            y = comp.compress(x).numpy()
            want = self._oneshot_want[j] = (y, comp.decompress(y).numpy())
        return want

    def _oneshot(self, tally: Tally, recorder, j: int, direction: str, fn, *args, **kw):
        """One timed one-shot call as its own unit."""
        out, dt = _attempt(
            tally, 1, f"one-shot {direction} {j}", recorder, f"oneshot:{j}", fn, *args, **kw
        )
        if out is not None:
            # A round trip is one item, counted on its compress half.
            tally.unit(("oneshot", j, direction), dt, self.chunks[0][j].image.nbytes,
                       int(direction == "compress"))
        return out

    def _oneshot_leg(self, tally: Tally, recorder) -> None:
        previous = core.set_service(self.oneshot)
        try:
            for j, req in enumerate(self.chunks[0][: self.n_oneshot]):
                x = req.image
                tally.attempted += 2
                y = self._oneshot(tally, recorder, j, "compress", core.compress, x,
                                  method="dc", cf=req.cf)
                if y is None:
                    tally.fail(1, f"one-shot decompress {j} skipped: its compress raised")
                    continue
                want_y, want_z = self._oneshot_expected(j, x, req.cf)
                if np.array_equal(y.numpy(), want_y):
                    tally.served += 1
                else:
                    tally.fail(1, f"one-shot compress {j} differs from a direct compressor")
                z = self._oneshot(tally, recorder, j, "decompress", core.decompress, y, x.shape,
                                  method="dc", cf=req.cf)
                if z is None:
                    continue
                if np.array_equal(z.numpy(), want_z):
                    tally.served += 1
                else:
                    tally.fail(1, f"one-shot decompress {j} differs from a direct compressor")
        finally:
            core.set_service(previous)

    def cycle(self, tally: Tally, recorder=None, repro_tracer: bool = False) -> None:
        tally.begin_cycle()
        for i in range(len(self.chunks)):
            self._session(tally, i, recorder, repro_tracer)
        self._oneshot_leg(tally, recorder)


# ----------------------------------------------------------------------
class FleetChurn(Workload):
    name = "fleet-churn"
    why = "routing, admission, snapshots and plan-cache misses/compiles dominate; sheds and crashes are real"
    traceable = True
    report = {"session": ("fleet.rps", "requests/s")}
    latency_sample = "one FleetRouter.process session"

    N_WORKERS = 4
    SNAPSHOT_INTERVAL = 16

    def make_inputs(self, *, first_only: bool = False) -> None:
        n_chunks, n_requests = (2, 64) if self.tiny else (8, 128)
        if first_only:
            n_chunks = 1
        self.chunks = []
        self.storms = []
        for i in range(n_chunks):
            chunk_seed = self.seed * 100 + i
            self.chunks.append(
                multi_tenant_trace(
                    n_requests,
                    seed=chunk_seed,
                    resolutions=(32, 48, 64),
                    cfs=(2, 3, 4),
                    methods=("dc", "ps", "sg"),
                    rate=8000.0,
                )
            )
            self.storms.append(self._storm(chunk_seed, n_requests))
        self._exact: dict[int, tuple[int, int, int, int]] = {}

    def _storm(self, chunk_seed: int, n_requests: int) -> WorkerFaultPlan:
        """Two crashes, held past the second snapshot round so each victim
        has a warm snapshot to hand off."""
        plan = worker_storm(
            chunk_seed + 1,
            workers=tuple(f"w{k}" for k in range(self.N_WORKERS)),
            crashes=2,
            span=n_requests,
            restart_after=max(8, n_requests // 8),
        )
        onset = 2 * self.SNAPSHOT_INTERVAL
        return WorkerFaultPlan(
            faults=[replace(f, at_request=max(f.at_request, onset)) for f in plan],
            seed=plan.seed,
        )

    def setup(self) -> None:
        self.oracle = _Oracle()

    def _router(self, i: int, repro_tracer: bool = False) -> FleetRouter:
        return FleetRouter(
            self.N_WORKERS,
            tenant_policy=TenantPolicy(window=64, contention_depth=12),
            cache_capacity=8,
            spill_depth=8,
            fault_plan=self.storms[i],
            snapshot_interval=self.SNAPSHOT_INTERVAL,
            tracer=Tracer(seed=i) if repro_tracer else None,
        )

    def first_output(self) -> float:
        responses, _ = self._router(0).process(self.chunks[0])
        done = time.monotonic()
        probe = Tally()
        _check_responses(probe, self.oracle, 0, responses[:1])
        if probe.failed or not responses:
            raise CheckFailed(probe.problems[0] if probe.problems else "no responses")
        return done

    def cycle(self, tally: Tally, recorder=None, repro_tracer: bool = False) -> None:
        tally.begin_cycle()
        for i, chunk in enumerate(self.chunks):
            router = self._router(i, repro_tracer)
            tally.attempted += len(chunk)
            result, dt = _attempt(tally, len(chunk), f"session {i}", recorder, f"session:{i}",
                                  router.process, chunk)
            if result is None:
                continue
            responses, fstats = result
            served_bytes = sum(r.request.image.nbytes for r in responses)
            tally.unit(("session", i), dt, served_bytes, len(responses))
            # process() hands back every response at once, so the session
            # is one latency sample: the call its caller waited on.
            tally.latency(dt)
            _check_responses(tally, self.oracle, i, responses)
            if fstats.n_failed:
                tally.fail(fstats.n_failed, f"session {i}: {fstats.n_failed} failed request(s)")
            tally.shed += fstats.n_shed
            _check_accounting(
                tally, f"session {i}", len(chunk), len(responses), fstats.n_shed, fstats.n_failed
            )
            self._exact.setdefault(
                i, (len(chunk), fstats.n_spills, fstats.n_replays, fstats.n_handoffs)
            )

    def exact_counts(self) -> dict:
        """Spill share, replays and handoffs over one pass of the sessions:
        functions of the seed alone, so later changes must leave them be."""
        rows = list(self._exact.values())
        requests = sum(r[0] for r in rows)
        return {
            "fleet.spill_share": sum(r[1] for r in rows) / requests if requests else 0.0,
            "fleet.replays": sum(r[2] for r in rows),
            "fleet.handoffs": sum(r[3] for r in rows),
        }


WORKLOADS = {w.name: w for w in (KernelBulk, ServeHot, FleetChurn)}
