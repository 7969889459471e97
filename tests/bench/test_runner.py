"""repro.bench: suite construction, determinism, JSON schema, regression gate."""

import json
import os

import numpy as np
import pytest

from repro import bench
from repro.bench import BenchCase, compare, default_suite, run_case, run_suite


def tiny_suite():
    """A sub-second grid for tests (the real suite uses n up to 512)."""
    return [
        BenchCase(method, 16, 2, direction, batch=2)
        for method in ("dc", "ps", "sg")
        for direction in ("compress", "decompress")
    ]


@pytest.fixture(scope="module")
def tiny_report():
    # A live run: the report tests below check its shape and bit-identity,
    # never its timings (the gate tests use synthetic_report instead).
    return run_suite(tiny_suite(), repeats=3, speedup_cfs=(7,))


class TestSuite:
    def test_default_suite_covers_grid(self):
        cases = default_suite()
        # methods x sizes x cfs x directions, plus the parallel (x2
        # directions) and float64 rider cases.
        assert len(cases) == 3 * 3 * 3 * 2 + 3
        keys = {c.key for c in cases}
        assert len(keys) == len(cases)
        assert "sg-n512-cf7-decompress" in keys
        assert "dc-n256-cf4-compress-w2" in keys
        assert "dc-n256-cf4-decompress-w2" in keys
        assert "dc-n256-cf4-compress-float64" in keys

    def test_rider_keys_leave_grid_keys_unchanged(self):
        # The dtype/workers fields must not perturb pre-existing keys or
        # seeds: default-valued cases keep their old identity.
        default = BenchCase("dc", 256, 4, "compress")
        assert default.key == "dc-n256-cf4-compress"
        assert bench.runner.hash_tag(default) == bench.runner.hash_tag(
            BenchCase("dc", 256, 4, "compress", dtype="float32", workers=1)
        )
        rider = BenchCase("dc", 256, 4, "compress", workers=2)
        assert bench.runner.hash_tag(rider) != bench.runner.hash_tag(default)

    def test_run_case_deterministic_checksum(self):
        case = BenchCase("dc", 16, 4, "compress", batch=2)
        a = run_case(case, repeats=1)
        b = run_case(case, repeats=1)
        assert a.checksum == b.checksum
        assert a.median_s > 0 and a.p95_s >= a.median_s

    def test_seed_changes_checksum(self):
        case = BenchCase("dc", 16, 4, "compress", batch=2)
        a = run_case(case, seed=0, repeats=1)
        b = run_case(case, seed=1, repeats=1)
        assert a.checksum != b.checksum

    def test_calibration_positive(self):
        assert bench.calibrate(repeats=3, warmup=1) > 0

    def test_parallel_case_runs_and_matches_serial_bytes(self):
        serial = run_case(BenchCase("dc", 16, 4, "compress", batch=2), repeats=1)
        fanned = run_case(
            BenchCase("dc", 16, 4, "compress", batch=2, workers=2), repeats=1
        )
        # Same seed tag would differ (workers is in the seed sequence),
        # so compare determinism per case instead of across cases.
        assert serial.checksum and fanned.checksum

    def test_float64_case_runs(self):
        result = run_case(
            BenchCase("dc", 16, 4, "compress", batch=2, dtype="float64"), repeats=1
        )
        assert result.median_s > 0


class TestDegenerateConfigs:
    """Satellite: degenerate timing configs must raise ConfigError naming
    the offending value instead of crashing inside numpy."""

    def test_percentile_of_empty_samples(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="empty"):
            bench.runner._percentile([], 50)

    def test_zero_repeats(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="repeats must be >= 1, got 0"):
            bench.runner._time_fn(lambda _: None, None, repeats=0, warmup=0)

    def test_negative_warmup(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="warmup must be >= 0, got -1"):
            bench.runner._time_fn(lambda _: None, None, repeats=3, warmup=-1)

    def test_warmup_exceeding_repeats(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=r"warmup \(5\) exceeds repeats \(2\)"):
            bench.runner._time_fn(lambda _: None, None, repeats=2, warmup=5)

    def test_calibrate_validates_timing(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="repeats"):
            bench.calibrate(repeats=0)
        with pytest.raises(ConfigError, match="warmup"):
            bench.calibrate(repeats=2, warmup=3)

    def test_run_case_rejects_unknown_direction(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="direction"):
            run_case(BenchCase("dc", 16, 4, "sideways", batch=2), repeats=1)

    def test_measure_parallel_rejects_serial_workers(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="workers >= 2, got 1"):
            bench.measure_parallel(n=16, cfs=(4,), workers=1, repeats=1)


class TestReport:
    def test_json_roundtrip(self, tiny_report, tmp_path):
        path = tmp_path / "bench.json"
        tiny_report.write(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == bench.SCHEMA
        assert len(loaded["cases"]) == len(tiny_report.cases)
        assert loaded["calibration_s"] > 0
        assert {"python", "numpy", "machine"} <= set(loaded["env"])
        for entry in loaded["cases"]:
            assert {"method", "n", "cf", "direction", "median_s", "p95_s", "checksum"} <= set(entry)
        assert loaded["speedups"][0]["identical"] is True

    def test_env_records_cores_and_blas(self):
        env = bench.runner.current_env()
        assert env["cpu_count"] == os.cpu_count()
        assert env["blas"] and env["blas_version"]
        threads = env["blas_threads"]
        assert threads is None or (isinstance(threads, int) and threads >= 1)
        assert env["numpy"] == np.__version__
        json.dumps(env)  # travels in the report as plain JSON

    def test_speedup_section(self, tiny_report):
        assert len(tiny_report.speedups) == 1
        s = tiny_report.speedups[0]
        assert s.n == 512
        assert s.identical
        assert tiny_report.median_speedup == pytest.approx(s.speedup)

    def test_parallel_section(self, tiny_report):
        assert len(tiny_report.parallel) == 1
        p = tiny_report.parallel[0]
        assert p.workers == 2
        # Bit-identity to the dense oracle is absolute, whatever the
        # core count of the machine running the suite.
        assert p.identical
        assert p.serial_median_s > 0 and p.parallel_median_s > 0
        assert tiny_report.median_parallel_speedup == pytest.approx(p.speedup)

    def test_precision_section(self, tiny_report):
        names = [row["name"] for row in tiny_report.precision]
        assert names == ["dct-float64", "dct-float32", "dct-int8", "quant-8bit"]
        by_name = {row["name"]: row for row in tiny_report.precision}
        # int8 stores 1 byte/coefficient instead of 4.
        assert by_name["dct-int8"]["ratio"] == pytest.approx(
            4 * by_name["dct-float32"]["ratio"]
        )
        # The float64 reference can only be at least as accurate as f32.
        assert by_name["dct-float64"]["nrmse"] <= by_name["dct-float32"]["nrmse"] + 1e-9
        for row in tiny_report.precision:
            assert row["median_s"] > 0

    def test_new_sections_serialize(self, tiny_report):
        loaded = json.loads(tiny_report.to_json())
        assert loaded["median_parallel_speedup"] == pytest.approx(
            tiny_report.median_parallel_speedup
        )
        assert {"n", "cf", "workers", "speedup", "identical"} <= set(
            loaded["parallel"][0]
        )
        assert {"name", "ratio", "nrmse", "psnr", "median_s"} <= set(
            loaded["precision"][0]
        )


# Gate logic runs on synthetic reports with fixed timings, so each rule
# (floor, tolerance, noise guard, confirm rerun, envelope) is checked at
# its boundary.  Live timings feed only the wiring tests: the live 3.0x
# floor is the CI bench job's to enforce, not a unit test's.
CAL = 2.0**-10      # powers of two keep every ratio below exact
FAST = 2.0**-7


def synthetic_report(*, speedup=4.0, slowdown=1.0, cal=CAL, identical=True,
                     parallel_speedup=1.5):
    """A :class:`BenchReport` whose every timing is fixed.

    ``slowdown`` scales each case's times (not the calibration), so the
    calibration-normalised drift against an unscaled baseline is exactly
    ``slowdown``.
    """
    cases = [
        bench.CaseResult(
            case,
            median_s=FAST * (i + 2) * slowdown,
            p95_s=FAST * (i + 3) * slowdown,
            checksum=f"{i:016x}",
            best_s=FAST * (i + 1) * slowdown,
        )
        for i, case in enumerate(tiny_suite())
    ]
    speedups = [
        bench.SpeedupResult(512, cf, "compress", FAST * speedup, FAST, identical)
        for cf in (2, 4, 7)
    ]
    parallel = [
        bench.ParallelResult(512, 4, 2, FAST * parallel_speedup, FAST, True)
    ]
    precision = [
        {"name": "dct-float32", "ratio": 4.0, "nrmse": 0.0625, "psnr": 40.0,
         "median_s": FAST},
    ]
    return bench.BenchReport(
        seed=0, repeats=3, calibration_s=cal, cases=cases, speedups=speedups,
        env=bench.runner.current_env(), parallel=parallel, precision=precision,
    )


@pytest.fixture
def report():
    return synthetic_report()


def baseline_of(report):
    return json.loads(report.to_json())


class TestCompare:
    def test_self_comparison_clean(self, report):
        result = compare(report, baseline_of(report))
        assert result.ok
        assert not result.regressions and not result.failures

    def test_flags_timing_regression(self, report):
        baseline = baseline_of(report)
        for entry in baseline["cases"]:
            entry["median_s"] /= 1000.0
            entry["best_s"] /= 1000.0
        result = compare(report, baseline, min_delta_s=0.0)
        assert not result.ok
        assert len(result.regressions) == len(report.cases)

    def test_tolerance_boundary_is_inclusive(self, report):
        baseline = baseline_of(report)
        at_bound = synthetic_report(slowdown=1.25)
        assert compare(at_bound, baseline, tolerance=0.25, min_delta_s=0.0).ok
        past = compare(synthetic_report(slowdown=1.375), baseline,
                       tolerance=0.25, min_delta_s=0.0)
        assert len(past.regressions) == len(report.cases)
        assert all("> 25% slower" in r for r in past.regressions)

    def test_gate_normalises_by_calibration(self, report):
        # Twice the case times on a host whose calibration also doubled
        # is the same normalised time: no regression.
        slow_host = synthetic_report(slowdown=2.0, cal=2 * CAL)
        assert compare(slow_host, baseline_of(report), min_delta_s=0.0).ok
        assert not compare(
            synthetic_report(slowdown=2.0), baseline_of(report), min_delta_s=0.0
        ).ok

    def test_min_delta_guard_suppresses_noise(self, report):
        # Cases 2x slower in relative terms, but the largest absolute
        # drift is 6 * FAST seconds: a guard above that keeps all quiet,
        # one just below it flags only the slowest case.
        slow = synthetic_report(slowdown=2.0)
        largest_drift = FAST * len(report.cases)
        assert compare(slow, baseline_of(report), min_delta_s=largest_drift).ok
        result = compare(slow, baseline_of(report), min_delta_s=largest_drift - FAST / 2)
        assert [r.split(":")[0] for r in result.regressions] == [report.cases[-1].case.key]

    def test_flags_timing_regression_on_best_not_median(self, report):
        baseline = baseline_of(report)
        for entry in baseline["cases"]:
            entry["median_s"] /= 1000.0   # medians look 1000x worse...
        assert compare(report, baseline, min_delta_s=0.0).ok  # ...best_s gates

    def test_speedup_floor_is_exact(self, report):
        baseline = baseline_of(report)
        assert baseline["min_speedup"] == bench.MIN_SPEEDUP == 3.0
        assert compare(synthetic_report(speedup=3.0), baseline).ok
        result = compare(synthetic_report(speedup=2.96875), baseline)
        assert result.regressions == [
            "median fast-path speedup: 2.97x at n=512 below the 3.0x floor"
        ]

    def test_flags_speedup_floor_miss(self, report):
        # The floor is the baseline's, not the constant.
        baseline = baseline_of(report)
        baseline["min_speedup"] = 4.5
        result = compare(report, baseline)
        assert result.regressions == [
            "median fast-path speedup: 4.00x at n=512 below the 4.5x floor"
        ]

    def test_speedup_nonidentical_is_hard_failure(self, report):
        result = compare(synthetic_report(identical=False), baseline_of(report))
        assert len(result.failures) == 3
        assert all("differs from dense" in f for f in result.failures)

    def test_checksum_mismatch_advisory_without_env_match(self, report):
        baseline = baseline_of(report)
        baseline["cases"][0]["checksum"] = "deadbeefdeadbeef"
        baseline["env"]["numpy"] = "0.0.0"
        result = compare(report, baseline)
        assert result.ok
        assert any("checksum" in w for w in result.warnings)

    def test_checksum_mismatch_fails_with_env_match(self, report):
        baseline = baseline_of(report)
        baseline["cases"][0]["checksum"] = "deadbeefdeadbeef"
        baseline["env"]["numpy"] = np.__version__
        result = compare(report, baseline)
        assert not result.ok

    def test_schema_mismatch_fails(self, report):
        result = compare(report, {"schema": "other/v9"})
        assert not result.ok

    def test_new_case_is_warning(self, report):
        baseline = baseline_of(report)
        baseline["cases"] = baseline["cases"][1:]
        result = compare(report, baseline)
        assert result.ok
        assert any("no baseline entry" in w for w in result.warnings)

    def test_parallel_nonidentical_is_hard_failure(self, report):
        import dataclasses

        baseline = baseline_of(report)
        report.parallel = [dataclasses.replace(p, identical=False) for p in report.parallel]
        result = compare(report, baseline)
        assert not result.ok
        assert any("differs from dense oracle" in f for f in result.failures)

    def test_parallel_speedup_slide_boundary(self, report):
        # The baseline ratio is 1.5x; the gate allows a slide to half.
        baseline = baseline_of(report)
        assert compare(synthetic_report(parallel_speedup=0.75), baseline).ok
        result = compare(synthetic_report(parallel_speedup=0.5), baseline)
        assert not result.ok
        assert any("slide" in r for r in result.regressions)

    def test_parallel_missing_baseline_is_warning(self, report):
        baseline = baseline_of(report)
        baseline["parallel"] = []
        result = compare(report, baseline)
        assert result.ok
        assert any("parallel" in w and "no baseline" in w for w in result.warnings)

    def test_precision_nrmse_drift_is_regression(self, report):
        baseline = baseline_of(report)
        for entry in baseline["precision"]:
            entry["nrmse"] = entry["nrmse"] / 2.0  # report looks 2x worse
        result = compare(report, baseline)
        assert not result.ok
        assert any("NRMSE" in r for r in result.regressions)

    def test_precision_missing_baseline_is_warning(self, report):
        baseline = baseline_of(report)
        baseline["precision"] = []
        result = compare(report, baseline)
        assert result.ok
        assert any("precision" in w for w in result.warnings)


class TestMergeReports:
    """Envelope merge across suite runs — how BENCH_compressor.json is made."""

    def test_single_report_preserves_cases(self, report):
        merged = bench.merge_reports([report])
        assert merged == baseline_of(report)

    def test_empty_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="at least one report"):
            bench.merge_reports([])

    def test_envelope_takes_worst_normalised_best(self, report):
        # The slow run's calibration doubled and its cases tripled: its
        # normalised best is 1.5x the fast run's, so that is the envelope,
        # re-expressed against the merged (median) calibration.
        slow = synthetic_report(slowdown=3.0, cal=2 * CAL)
        merged = bench.merge_reports([report, slow])
        assert merged["calibration_s"] == 1.5 * CAL
        for got, orig in zip(merged["cases"], report.cases):
            assert got["best_s"] == pytest.approx(1.5 * CAL * 1.5 * orig.best_s / CAL)
            assert got["median_s"] == pytest.approx(2.0 * orig.median_s)
            assert got["p95_s"] == 3.0 * orig.p95_s

    def test_ratio_sections_take_per_entry_medians(self, report):
        merged = bench.merge_reports(
            [report, synthetic_report(speedup=6.0, parallel_speedup=0.5)]
        )
        assert [s["speedup"] for s in merged["speedups"]] == [5.0, 5.0, 5.0]
        assert merged["median_speedup"] == 5.0
        assert merged["parallel"][0]["speedup"] == 1.0

    def test_merged_baseline_accepts_its_source_runs(self, report):
        slow = synthetic_report(slowdown=1.6, cal=1.125 * CAL)
        assert not compare(slow, baseline_of(report), min_delta_s=0.0).ok
        merged = bench.merge_reports([report, slow])
        # Either source run passes against the envelope even though they
        # differ from each other by more than the tolerance.
        assert compare(report, merged, min_delta_s=0.0).ok
        assert compare(slow, merged, min_delta_s=0.0).ok

    def test_checksum_divergence_rejected(self, report):
        from repro.errors import ConfigError

        other = synthetic_report()
        other.cases[0].checksum = "deadbeefdeadbeef"
        with pytest.raises(ConfigError, match="checksum diverged"):
            bench.merge_reports([report, other])

    def test_identity_divergence_rejected(self, report):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="diverged from dense"):
            bench.merge_reports([report, synthetic_report(identical=False)])

    def test_nrmse_divergence_rejected(self, report):
        from repro.errors import ConfigError

        other = synthetic_report()
        other.precision[0]["nrmse"] += 1e-3
        with pytest.raises(ConfigError, match="NRMSE diverged"):
            bench.merge_reports([report, other])


@pytest.fixture
def scripted_suite(monkeypatch):
    """Make the CLI's ``run_suite`` hand back queued synthetic reports."""
    queue = []

    def run_suite(**_kwargs):
        return queue.pop(0)

    monkeypatch.setattr(bench, "run_suite", run_suite)
    return queue


class TestCLI:
    def test_suite_flag_with_baseline_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        # Full CLI path is exercised with the real (fast) suite in CI; here
        # only the wiring: --suite --out writes a valid report.
        code = main(
            ["bench", "--suite", "--repeats", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == bench.SCHEMA
        captured = capsys.readouterr()
        assert "median fast-path speedup" in captured.out

    def test_exit_2_on_regression(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert main(["bench", "--suite", "--repeats", "1", "--out", str(out)]) == 0
        baseline = json.loads(out.read_text())
        baseline["min_speedup"] = 1e9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(baseline))
        code = main(
            ["bench", "--suite", "--repeats", "1", "--baseline", str(bad)]
        )
        assert code == 2

    def test_exit_1_on_missing_baseline(self, tmp_path):
        from repro.cli import main

        code = main(
            ["bench", "--suite", "--repeats", "1", "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 1

    def test_refresh_writes_merged_envelope(self, tmp_path, capsys, scripted_suite):
        from repro.cli import main

        runs = [synthetic_report(), synthetic_report(slowdown=1.6, cal=1.125 * CAL)]
        scripted_suite.extend(runs)
        out = tmp_path / "baseline.json"
        code = main(["bench", "--suite", "--refresh", "2", "--out", str(out)])
        assert code == 0
        assert not scripted_suite
        merged = json.loads(out.read_text())
        assert merged == json.loads(json.dumps(bench.merge_reports(runs)))
        assert "merged 2 suite runs" in capsys.readouterr().out
        # The file it wrote is a working baseline for the gate.
        scripted_suite.append(runs[1])
        assert main(["bench", "--suite", "--baseline", str(out)]) == 0

    def test_refresh_requires_out(self, capsys):
        from repro.cli import main

        assert main(["bench", "--suite", "--refresh", "2"]) == 1
        assert "--refresh needs --out" in capsys.readouterr().err

    def _baseline(self, tmp_path):
        path = tmp_path / "baseline.json"
        synthetic_report().write(path)
        return str(path)

    def test_timing_regression_confirmed_on_rerun(self, tmp_path, capsys, scripted_suite):
        from repro.cli import main

        scripted_suite.extend([synthetic_report(slowdown=2.0)] * 2)
        code = main(["bench", "--suite", "--baseline", self._baseline(tmp_path)])
        captured = capsys.readouterr()
        assert "re-running suite once to confirm" in captured.out
        assert captured.err.count("REGRESSION:") == len(tiny_suite())
        assert code == 2

    def test_transient_regression_cleared_by_rerun(self, tmp_path, capsys, scripted_suite):
        from repro.cli import main

        scripted_suite.extend([synthetic_report(speedup=2.0), synthetic_report()])
        code = main(["bench", "--suite", "--baseline", self._baseline(tmp_path)])
        captured = capsys.readouterr()
        assert "re-running suite once to confirm" in captured.out
        assert "REGRESSION" not in captured.err
        assert code == 0

    def test_only_regressions_seen_twice_are_kept(self, tmp_path, capsys, scripted_suite):
        from repro.cli import main

        # First run misses the floor and is slow; the rerun is only slow.
        scripted_suite.extend(
            [synthetic_report(speedup=2.0, slowdown=2.0), synthetic_report(slowdown=2.0)]
        )
        code = main(["bench", "--suite", "--baseline", self._baseline(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "fast-path speedup" not in err
        assert err.count("REGRESSION:") == len(tiny_suite())

    def test_hard_failure_gets_no_rerun(self, tmp_path, capsys, scripted_suite):
        from repro.cli import main

        scripted_suite.append(synthetic_report(identical=False))
        code = main(["bench", "--suite", "--baseline", self._baseline(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "re-running" not in captured.out
