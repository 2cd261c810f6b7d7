"""Every committed ``BENCH_*.json`` at the repository root is a complete, comparable record.

A record holds ``perfbench/run.py`` result files of a parent commit and of a
change, each run tagged with its ``side``, plus the ``compare.py`` verdicts.
It must cover both sides of every workload in ``BENCHMARK.json`` at both
trace modes, every run must be ``correct``, and all runs must share one BLAS
thread setting, since ``compare.py`` refuses runs at different settings.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
SIDES = ("parent", "change")
TRACE_MODES = (0, 1)


def test_a_bench_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_covers_both_sides_of_every_workload_and_trace_mode(path):
    record = json.loads(path.read_text())
    runs = record["runs"]
    covered = {(run["side"], run["detail"]["workload"], run["detail"]["trace"]) for run in runs}
    expected = {(side, w, trace) for side in SIDES for w in WORKLOADS for trace in TRACE_MODES}
    assert expected <= covered
    assert {side for side, _, _ in covered} <= set(SIDES)
    assert all(run["result"]["correct"] for run in runs)
    settings = {
        json.dumps(run["detail"]["environment"]["blas_threads"], sort_keys=True) for run in runs
    }
    assert len(settings) == 1
    verdicts = {(v["workload"], v["trace"]) for v in record["compare"]}
    assert verdicts >= {(w, trace) for w in WORKLOADS for trace in TRACE_MODES}
