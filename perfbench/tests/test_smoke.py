"""Tiny-size runs of every workload: outputs check, metric names match."""

from __future__ import annotations

import json
import os

import pytest

from perfbench import run as bench
from perfbench.workloads import WORKLOADS

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_output_check(workload, trace):
    args = bench._parse([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--scale", "tiny",
    ])
    result, lines = bench.run(args)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("output check: PASS") for line in lines)
    assert any(line.startswith("env ") for line in lines)


def test_tally_reads_throughput_over_every_repeat_and_keeps_every_latency():
    from perfbench.workloads import Tally

    tally = Tally()
    for slow in (False, True, True):
        tally.begin_cycle()
        tally.unit(("a", 1), 2.0 if slow else 1.0, 1_000_000)
        tally.unit(("b", 1), 6.0 if slow else 3.0, 3_000_000, items=2)
        tally.latency(20.0 if slow else 10.0)
    assert tally.mbps() == 12.0 / 20.0              # 3 x 4 MB over 20 s
    assert tally.mbps("a") == 3.0 / 5.0
    assert tally.items_per_s("b") == 6 / 15.0
    assert tally.fast_busy_s() == 4.0               # the traced ratios' one-pass reading
    assert tally.fast_busy_s("a") == 1.0
    assert tally.cycles == 3
    assert tally.latency_s == [[10.0], [20.0], [20.0]]
