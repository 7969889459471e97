"""Seeded micro-benchmark harness for the compressor hot path.

This is the repo's perf baseline: :func:`run_suite` times compress and
decompress for every method ∈ {dc, ps, sg}, n ∈ {64, 256, 512} and
CF ∈ {2, 4, 7} on seeded inputs, and emits a JSON report
(``BENCH_compressor.json`` at the repo root is the committed baseline).

Design notes, because perf CI is where good intentions go to flake:

* **Seeded and deterministic.**  Inputs come from
  ``np.random.default_rng`` seeded per case, so every run times the same
  bytes, and each case's output checksum is recorded.  Within one run
  each case is executed twice and must checksum identically — catching
  nondeterminism at the source rather than in a downstream diff.
* **Calibration-normalised timing.**  Absolute wall times are machine
  properties; storing them raw would make the committed baseline fail on
  any differently-sized runner.  The report therefore includes the
  median time of a fixed reference matmul measured in the same process,
  and regression checks compare ``case_median / calibration`` ratios.
* **Checksums are advisory across machines.**  Bit-exact outputs depend
  on the BLAS build's kernel selection, which varies by CPU; checksum
  mismatches against the baseline are reported as warnings unless the
  environment matches.  The *hard* bit-identity guarantee (tiled fast
  path ≡ dense oracle) is enforced in-process by the speedup section and
  the equivalence test suite, which is portable.
* **Speedup gate.**  The report measures dense-vs-fast medians at
  n = 512 for each CF and records the median speedup across CFs;
  :func:`compare` fails if it drops below the baseline's
  ``min_speedup`` floor or if dense/fast outputs ever differ bitwise.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import precision as precision_mod
from repro.core.api import make_compressor
from repro.errors import ConfigError
from repro.tensor import Tensor, no_grad

SCHEMA = "repro-bench/v1"
DEFAULT_TOLERANCE = 0.25
MIN_SPEEDUP = 3.0
# Ignore regressions on cases too fast to time reliably: below this many
# seconds of absolute drift, scheduler noise dominates real signal.
MIN_DELTA_S = 5e-4
# Parallel speedup is machine-relative (worker threads on a 1-core CI
# runner *cost* time); the gate compares against the committed baseline's
# own measured ratio, tolerating up to a 2x relative slide.
PARALLEL_SLIDE = 0.5
# Accuracy is not machine-relative: a precision variant's NRMSE moving
# more than this fraction past the baseline is a quality regression.
NRMSE_SLIDE = 0.10

METHODS = ("dc", "ps", "sg")
SIZES = (64, 256, 512)
CFS = (2, 4, 7)
SPEEDUP_N = 512
PARALLEL_WORKERS = 2
BATCH = 4


@dataclass(frozen=True)
class BenchCase:
    """One timed configuration."""

    method: str
    n: int
    cf: int
    direction: str  # "compress" | "decompress"
    s: int = 2
    batch: int = BATCH
    dtype: str = "float32"
    workers: int = 1

    @property
    def key(self) -> str:
        key = f"{self.method}-n{self.n}-cf{self.cf}-{self.direction}"
        # Suffixes only when non-default, so pre-existing baseline keys
        # (all float32, serial) are unchanged.
        if self.dtype != "float32":
            key += f"-{self.dtype}"
        if self.workers != 1:
            key += f"-w{self.workers}"
        return key

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "n": self.n,
            "cf": self.cf,
            "direction": self.direction,
            "s": self.s,
            "batch": self.batch,
            "dtype": self.dtype,
            "workers": self.workers,
        }


@dataclass
class CaseResult:
    case: BenchCase
    median_s: float
    p95_s: float
    checksum: str
    # Minimum over the timed repeats.  Wall-time noise (scheduling,
    # frequency scaling, co-tenant load) is strictly additive, so the
    # minimum is the stablest location estimator — the regression gate
    # compares it; the median/p95 stay in the report as the honest
    # latency picture.
    best_s: float = 0.0

    def to_dict(self) -> dict:
        d = self.case.to_dict()
        d.update(
            median_s=self.median_s,
            p95_s=self.p95_s,
            best_s=self.best_s,
            checksum=self.checksum,
        )
        return d


def default_suite() -> list[BenchCase]:
    """The full grid plus the parallel and float64 rider cases.

    The grid is 3 methods x 3 sizes x 3 CFs x 2 directions, all float32
    and serial — their keys match pre-existing baselines.  The riders
    time the new execution modes at one representative configuration:
    the thread-pool fan-out (``workers=2``, both directions) and the
    float64 ingestion path (cast-to-float32 contract; see
    ``repro.core.fused._ingest``).
    """
    cases = []
    for method in METHODS:
        for n in SIZES:
            for cf in CFS:
                for direction in ("compress", "decompress"):
                    cases.append(BenchCase(method, n, cf, direction))
    for direction in ("compress", "decompress"):
        cases.append(BenchCase("dc", 256, 4, direction, workers=PARALLEL_WORKERS))
    cases.append(BenchCase("dc", 256, 4, "compress", dtype="float64"))
    return cases


def _checksum(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _case_input(case: BenchCase, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, hash_tag(case)])
    return rng.standard_normal((case.batch, case.n, case.n)).astype(case.dtype)


def hash_tag(case: BenchCase) -> int:
    """Stable small integer distinguishing cases in the seed sequence."""
    tag = 0
    parts = [case.method, str(case.n), str(case.cf), case.direction]
    # Default-valued fields stay out of the sequence so pre-existing
    # cases keep their seeds (and therefore their checksums).
    if case.dtype != "float32":
        parts.append(case.dtype)
    if case.workers != 1:
        parts.append(f"w{case.workers}")
    for part in parts:
        for ch in part:
            tag = (tag * 131 + ord(ch)) % (2**31)
    return tag


def _percentile(times: list[float], q: float) -> float:
    if not times:
        raise ConfigError("cannot take a percentile of an empty sample list")
    return float(np.percentile(np.asarray(times, dtype=np.float64), q))


def _check_timing(repeats: int, warmup: int) -> None:
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    if warmup > repeats:
        raise ConfigError(
            f"warmup ({warmup}) exceeds repeats ({repeats}); the warmup "
            f"would dominate the measurement"
        )


def _time_fn(fn, arg, repeats: int, warmup: int = 1) -> list[float]:
    _check_timing(repeats, warmup)
    with no_grad():
        for _ in range(warmup):
            fn(arg)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - t0)
    return times


def run_case(case: BenchCase, *, seed: int = 0, repeats: int = 5) -> CaseResult:
    """Time one case; runs it twice to assert in-process determinism."""
    comp = make_compressor(
        case.n, method=case.method, cf=case.cf, s=case.s,
        workers=case.workers if case.workers != 1 else None,
    )
    raw = _case_input(case, seed)
    # Non-float32 cases hand the compressor the raw ndarray so the
    # per-call ingestion cast (the Tensor library is float32-native) is
    # inside the timed region — that cast *is* the dtype variant's cost.
    x = raw if case.dtype != "float32" else Tensor(raw)
    if case.direction == "compress":
        fn, arg = comp.compress, x
    elif case.direction == "decompress":
        with no_grad():
            compressed = comp.compress(x).data
        arg = (
            compressed.astype(case.dtype)
            if case.dtype != "float32"
            else Tensor(compressed)
        )
        fn = comp.decompress
    else:
        raise ConfigError(f"unknown direction {case.direction!r}")
    with no_grad():
        first = fn(arg).data
        second = fn(arg).data
    if not np.array_equal(first, second):
        raise AssertionError(f"{case.key}: nondeterministic output within one process")
    times = _time_fn(fn, arg, repeats)
    return CaseResult(
        case=case,
        median_s=_percentile(times, 50),
        p95_s=_percentile(times, 95),
        best_s=min(times),
        checksum=_checksum(first),
    )


def calibrate(repeats: int = 25, warmup: int = 5) -> float:
    """Reference-matmul time: the unit all stored medians are divided by.

    Uses the *minimum* over many repetitions — the most stable location
    estimator for wall time, since noise (scheduling, thread ramp-up,
    frequency scaling) is strictly additive.  A jittery calibration would
    shift every normalised median and fake regressions either way.
    """
    _check_timing(repeats, warmup)
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((1024, 512)).astype(np.float32)
    b = rng.standard_normal((512, 512)).astype(np.float32)
    for _ in range(warmup):
        a @ b
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return min(times)


@dataclass
class SpeedupResult:
    n: int
    cf: int
    direction: str
    dense_median_s: float
    fast_median_s: float
    identical: bool

    @property
    def speedup(self) -> float:
        return self.dense_median_s / self.fast_median_s if self.fast_median_s else 0.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "cf": self.cf,
            "direction": self.direction,
            "dense_median_s": self.dense_median_s,
            "fast_median_s": self.fast_median_s,
            "speedup": self.speedup,
            "identical": self.identical,
        }


def measure_speedups(
    *, n: int = SPEEDUP_N, cfs=CFS, seed: int = 0, repeats: int = 5
) -> list[SpeedupResult]:
    """Dense-oracle vs tiled fast path at the marquee resolution.

    Also re-checks bit-identity on the timed inputs — the speedup is only
    worth reporting if the outputs are the same bytes.
    """
    results = []
    for cf in cfs:
        fast = make_compressor(n, method="dc", cf=cf, fast=True)
        dense = make_compressor(n, method="dc", cf=cf, fast=False)
        case = BenchCase("dc", n, cf, "compress")
        x = Tensor(_case_input(case, seed))
        with no_grad():
            identical = np.array_equal(fast.compress(x).data, dense.compress(x).data)
        fast_times = _time_fn(fast.compress, x, repeats)
        dense_times = _time_fn(dense.compress, x, repeats)
        results.append(
            SpeedupResult(
                n=n,
                cf=cf,
                direction="compress",
                dense_median_s=_percentile(dense_times, 50),
                fast_median_s=_percentile(fast_times, 50),
                identical=identical,
            )
        )
    return results


@dataclass
class ParallelResult:
    """Serial vs thread-pool fast path at one ``(n, cf, workers)``."""

    n: int
    cf: int
    workers: int
    serial_median_s: float
    parallel_median_s: float
    identical: bool  # parallel output ≡ dense oracle, bitwise

    @property
    def speedup(self) -> float:
        if not self.parallel_median_s:
            return 0.0
        return self.serial_median_s / self.parallel_median_s

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "cf": self.cf,
            "workers": self.workers,
            "serial_median_s": self.serial_median_s,
            "parallel_median_s": self.parallel_median_s,
            "speedup": self.speedup,
            "identical": self.identical,
        }


def measure_parallel(
    *,
    n: int = SPEEDUP_N,
    cfs=CFS,
    workers: int = PARALLEL_WORKERS,
    seed: int = 0,
    repeats: int = 5,
) -> list[ParallelResult]:
    """Serial tiled vs ``workers``-way fan-out at the marquee resolution.

    Bit-identity against the **dense oracle** is re-checked on the timed
    inputs and is a hard :func:`compare` failure when broken.  The
    speedup itself is machine-relative — worker threads on fewer cores
    than ``workers`` cost time rather than saving it — so :func:`compare`
    gates it against the committed baseline's own measured ratio
    (``PARALLEL_SLIDE``), not an absolute floor.
    """
    if workers < 2:
        raise ConfigError(f"parallel section needs workers >= 2, got {workers}")
    results = []
    for cf in cfs:
        serial = make_compressor(n, method="dc", cf=cf, fast=True, workers=1)
        fanned = make_compressor(n, method="dc", cf=cf, fast=True, workers=workers)
        dense = make_compressor(n, method="dc", cf=cf, fast=False)
        case = BenchCase("dc", n, cf, "compress", workers=workers)
        x = Tensor(_case_input(case, seed))
        with no_grad():
            identical = np.array_equal(
                fanned.compress(x).data, dense.compress(x).data
            )
        serial_times = _time_fn(serial.compress, x, repeats)
        parallel_times = _time_fn(fanned.compress, x, repeats)
        results.append(
            ParallelResult(
                n=n,
                cf=cf,
                workers=workers,
                serial_median_s=_percentile(serial_times, 50),
                parallel_median_s=_percentile(parallel_times, 50),
                identical=identical,
            )
        )
    return results


def measure_precision(
    *, n: int = 256, cf: int = 4, seed: int = 0, repeats: int = 5
) -> list[dict]:
    """Accuracy-vs-throughput curve for the precision variants.

    One row per variant (float64 reference, float32 production path,
    int8-quantised coefficients) plus the ``UniformQuantizer`` baseline
    they are priced against: effective ratio, NRMSE, PSNR, and the
    median roundtrip seconds.  NRMSE drift past the committed baseline
    is a :func:`compare` regression; throughput rows are normalised like
    every other timing.
    """
    comp = make_compressor(n, method="dc", cf=cf, fast=True)
    case = BenchCase("dc", n, cf, "compress")
    x = _case_input(case, seed)
    rows = []
    for point in precision_mod.accuracy_curve(comp, x):
        if point.name.startswith("dct-"):
            precision = point.name.split("-", 1)[1]
            fn = lambda arr: precision_mod.variant_roundtrip(comp, arr, precision)  # noqa: E731
        else:
            from repro.baselines.quantization import UniformQuantizer

            fn = UniformQuantizer(8).roundtrip
        times = _time_fn(fn, x, repeats)
        rows.append(
            {
                "name": point.name,
                "n": n,
                "cf": cf,
                "ratio": point.ratio,
                "nrmse": point.nrmse,
                "psnr": point.psnr,
                "median_s": _percentile(times, 50),
            }
        )
    return rows


@dataclass
class BenchReport:
    seed: int
    repeats: int
    calibration_s: float
    cases: list[CaseResult]
    speedups: list[SpeedupResult]
    min_speedup: float = MIN_SPEEDUP
    env: dict = field(default_factory=dict)
    parallel: list[ParallelResult] = field(default_factory=list)
    precision: list[dict] = field(default_factory=list)

    @property
    def median_speedup(self) -> float:
        values = sorted(s.speedup for s in self.speedups)
        if not values:
            return 0.0
        return float(np.median(values))

    @property
    def median_parallel_speedup(self) -> float:
        values = sorted(p.speedup for p in self.parallel)
        if not values:
            return 0.0
        return float(np.median(values))

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "repeats": self.repeats,
            "calibration_s": self.calibration_s,
            "min_speedup": self.min_speedup,
            "median_speedup": self.median_speedup,
            "median_parallel_speedup": self.median_parallel_speedup,
            "env": self.env,
            "cases": [c.to_dict() for c in self.cases],
            "speedups": [s.to_dict() for s in self.speedups],
            "parallel": [p.to_dict() for p in self.parallel],
            "precision": list(self.precision),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _blas_build() -> tuple[str, str]:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown", "unknown"
    return str(blas.get("name", "unknown")), str(blas.get("version", "unknown"))


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy runs, or ``None`` if unknown.

    numpy wheels ship ``libscipy_openblas*`` in ``numpy.libs``; loading it
    again returns the handle numpy already mapped, whose
    ``scipy_openblas_get_num_threads64_`` export answers directly.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return int(get())
    return None


def current_env() -> dict:
    """The machine a report was measured on: versions, cores and BLAS."""
    blas, blas_version = _blas_build()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_version": blas_version,
        "blas_threads": blas_threads(),
    }


def run_suite(
    cases: list[BenchCase] | None = None,
    *,
    seed: int = 0,
    repeats: int = 5,
    speedup_cfs=CFS,
    workers: int = PARALLEL_WORKERS,
) -> BenchReport:
    """Run the micro-benchmark suite plus the speedup, parallel fan-out
    and precision-curve sections (all at the marquee n=512 / n=256)."""
    if cases is None:
        cases = default_suite()
    results = [run_case(c, seed=seed, repeats=repeats) for c in cases]
    speedups = measure_speedups(cfs=speedup_cfs, seed=seed, repeats=repeats)
    par = measure_parallel(cfs=speedup_cfs, workers=workers, seed=seed, repeats=repeats)
    prec = measure_precision(seed=seed, repeats=repeats)
    return BenchReport(
        seed=seed,
        repeats=repeats,
        calibration_s=calibrate(),
        cases=results,
        speedups=speedups,
        env=current_env(),
        parallel=par,
        precision=prec,
    )


def merge_reports(reports: list[BenchReport]) -> dict:
    """Envelope baseline across several runs of the *same* suite.

    One run samples one machine phase; on busy hosts sustained slow
    phases (co-tenant load, frequency scaling) shift whole runs by more
    than the compare tolerance.  The committed baseline is therefore an
    envelope over several runs: per-case ``best_s`` takes the slowest
    run's *calibration-normalised* best, re-expressed against the merged
    calibration (the gate compares normalised values, so the envelope
    must be taken in normalised space — a raw-seconds max understates
    the envelope whenever the slowest run also had slow calibration).
    Medians take the median, and the ratio sections (speedup/parallel)
    take per-entry medians.  Checksums and bit-identity must agree
    across runs — divergence there is nondeterminism, not noise.
    """
    if not reports:
        raise ConfigError("merge_reports needs at least one report")
    dicts = [r.to_dict() for r in reports]
    merged = json.loads(json.dumps(dicts[0]))

    def _median(values) -> float:
        return float(np.median(np.asarray(values, dtype=np.float64)))

    cal = _median([d["calibration_s"] for d in dicts])
    for i, case in enumerate(merged["cases"]):
        runs = [d["cases"][i] for d in dicts]
        if any(r["checksum"] != case["checksum"] for r in runs):
            raise ConfigError(
                f"checksum diverged across runs for {case['method']}-n{case['n']}"
                f"-cf{case['cf']}-{case['direction']}: nondeterministic suite"
            )
        case["best_s"] = cal * max(
            r["best_s"] / d["calibration_s"] for r, d in zip(runs, dicts)
        )
        case["median_s"] = _median([r["median_s"] for r in runs])
        case["p95_s"] = max(r["p95_s"] for r in runs)
    for i, entry in enumerate(merged["speedups"]):
        runs = [d["speedups"][i] for d in dicts]
        if not all(r["identical"] for r in runs):
            raise ConfigError("fast path diverged from dense during baseline runs")
        entry["dense_median_s"] = _median([r["dense_median_s"] for r in runs])
        entry["fast_median_s"] = _median([r["fast_median_s"] for r in runs])
        entry["speedup"] = entry["dense_median_s"] / entry["fast_median_s"]
    for i, entry in enumerate(merged["parallel"]):
        runs = [d["parallel"][i] for d in dicts]
        if not all(r["identical"] for r in runs):
            raise ConfigError("parallel path diverged from dense during baseline runs")
        entry["serial_median_s"] = _median([r["serial_median_s"] for r in runs])
        entry["parallel_median_s"] = _median([r["parallel_median_s"] for r in runs])
        entry["speedup"] = entry["serial_median_s"] / entry["parallel_median_s"]
    for i, row in enumerate(merged["precision"]):
        runs = [d["precision"][i] for d in dicts]
        if any(abs(r["nrmse"] - row["nrmse"]) > 1e-12 for r in runs):
            raise ConfigError(
                f"precision {row['name']}: NRMSE diverged across baseline runs"
            )
        row["median_s"] = _median([r["median_s"] for r in runs])
    merged["calibration_s"] = cal
    merged["median_speedup"] = _median([s["speedup"] for s in merged["speedups"]])
    merged["median_parallel_speedup"] = _median(
        [p["speedup"] for p in merged["parallel"]]
    ) if merged["parallel"] else 0.0
    return merged


@dataclass
class Comparison:
    """Outcome of diffing a fresh report against the committed baseline."""

    regressions: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.failures


def compare(
    report: BenchReport,
    baseline: dict,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    min_delta_s: float = MIN_DELTA_S,
) -> Comparison:
    """Diff ``report`` against a baseline JSON dict (see module docstring).

    A case regresses when its calibration-normalised median exceeds the
    baseline's by more than ``tolerance`` *and* the absolute drift
    exceeds ``min_delta_s``.  Non-identical dense/fast outputs or a
    median speedup below the baseline floor are hard failures.  Checksum
    drift is a warning unless numpy versions match.
    """
    out = Comparison()
    if baseline.get("schema") != SCHEMA:
        out.failures.append(
            f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"
        )
        return out

    cal_now = report.calibration_s
    cal_base = float(baseline.get("calibration_s", 0.0))
    if cal_now <= 0 or cal_base <= 0:
        out.failures.append("calibration missing or non-positive; cannot normalise")
        return out

    def _base_key(c: dict) -> str:
        # Mirror BenchCase.key, including the rider suffixes — without
        # them the w2/float64 rider entries would collide with (and
        # shadow) the plain grid entry of the same configuration.
        key = f"{c['method']}-n{c['n']}-cf{c['cf']}-{c['direction']}"
        if c.get("dtype", "float32") != "float32":
            key += f"-{c['dtype']}"
        if c.get("workers", 1) != 1:
            key += f"-w{c['workers']}"
        return key

    base_cases = {_base_key(c): c for c in baseline.get("cases", [])}
    strict_checksums = baseline.get("env", {}).get("numpy") == np.__version__
    for result in report.cases:
        key = result.case.key
        base = base_cases.get(key)
        if base is None:
            out.warnings.append(f"{key}: no baseline entry (new case)")
            continue
        # Gate on the minimum-of-repeats when both sides have it (noise
        # is additive; the minimum is far stabler run-to-run than the
        # median) — older baselines without best_s fall back to medians.
        if result.best_s > 0 and float(base.get("best_s", 0.0)) > 0:
            norm_now = result.best_s / cal_now
            norm_base = float(base["best_s"]) / cal_base
        else:
            norm_now = result.median_s / cal_now
            norm_base = float(base["median_s"]) / cal_base
        drift_s = (norm_now - norm_base) * cal_base
        if norm_now > norm_base * (1.0 + tolerance) and drift_s > min_delta_s:
            out.regressions.append(
                f"{key}: normalised time {norm_now:.2f} vs baseline "
                f"{norm_base:.2f} (> {tolerance:.0%} slower)"
            )
        if base.get("checksum") != result.checksum:
            msg = (
                f"{key}: checksum {result.checksum} != baseline {base['checksum']}"
            )
            if strict_checksums:
                out.failures.append(msg)
            else:
                out.warnings.append(msg + " (numpy differs; advisory only)")

    for s in report.speedups:
        if not s.identical:
            out.failures.append(
                f"speedup n={s.n} cf={s.cf}: fast path output differs from dense"
            )
    floor = float(baseline.get("min_speedup", MIN_SPEEDUP))
    if report.speedups and report.median_speedup < floor:
        # Keep everything before the first colon free of measured values:
        # the CLI's confirm-retry matches regression lines across runs by
        # that prefix.
        out.regressions.append(
            f"median fast-path speedup: {report.median_speedup:.2f}x at "
            f"n={SPEEDUP_N} below the {floor:.1f}x floor"
        )

    # Parallel fan-out: bit-identity is absolute; the speedup is gated
    # against the baseline's own measured ratio (a 1-core runner shows
    # < 1x on both sides and still passes; losing more than half the
    # baseline's ratio on the same machine class is a regression).
    base_parallel = {
        (p["n"], p["cf"], p["workers"]): p for p in baseline.get("parallel", [])
    }
    for p in report.parallel:
        if not p.identical:
            out.failures.append(
                f"parallel n={p.n} cf={p.cf} w={p.workers}: "
                f"output differs from dense oracle"
            )
        base = base_parallel.get((p.n, p.cf, p.workers))
        if base is None:
            out.warnings.append(
                f"parallel n={p.n} cf={p.cf} w={p.workers}: no baseline entry"
            )
            continue
        base_speedup = float(base.get("speedup", 0.0))
        if base_speedup > 0 and p.speedup < base_speedup * PARALLEL_SLIDE:
            out.regressions.append(
                f"parallel n={p.n} cf={p.cf} w={p.workers}: speedup "
                f"{p.speedup:.2f}x below baseline {base_speedup:.2f}x "
                f"(> {1 - PARALLEL_SLIDE:.0%} slide)"
            )

    # Precision curve: accuracy is machine-independent — NRMSE sliding
    # past the baseline means the variant got *less accurate*, which no
    # amount of runner noise excuses.
    base_precision = {p["name"]: p for p in baseline.get("precision", [])}
    for row in report.precision:
        base = base_precision.get(row["name"])
        if base is None:
            out.warnings.append(f"precision {row['name']}: no baseline entry")
            continue
        base_nrmse = float(base.get("nrmse", 0.0))
        if row["nrmse"] > base_nrmse * (1.0 + NRMSE_SLIDE) + 1e-12:
            out.regressions.append(
                f"precision {row['name']}: NRMSE {row['nrmse']:.6f} vs baseline "
                f"{base_nrmse:.6f} (> {NRMSE_SLIDE:.0%} worse)"
            )
    return out


def load_baseline(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
