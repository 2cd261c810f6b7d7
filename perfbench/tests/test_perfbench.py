"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pace.bench.run import RunConfig, prepare_assets, run_prepared
from perfbench import serve, trace
from perfbench.compare import main as compare_main
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = WORKLOADS["recurring-toy"].reference


@pytest.fixture(scope="module")
def standard():
    config = RunConfig(seed=0)
    model, stats, gamma = prepare_assets(config)
    return config, model, stats, gamma, serve.make_stream(config)


# forward passes on the standard 400-batch stream at seed 0 (ROADMAP baseline)
PRESET_FORWARDS = {
    "noadapt": 400,
    "pace": 1657,
    "pace-always": 4800,
    "pace-v1": 4800,
    "pace-v2": 4814,
    "pace-v3": 2669,
}


@pytest.mark.parametrize("method", sorted(PRESET_FORWARDS))
def test_direct_loop_matches_run_prepared_and_preset_counts(standard, method):
    config, model, stats, gamma, stream = standard
    config = replace(config, method=method)
    report = run_prepared(config, model, stats, gamma)
    assert report.total_forward_passes == PRESET_FORWARDS[method]
    if method == "noadapt":
        return  # no controller, so nothing for the benchmark loop to serve
    served = serve.serve(config, model, stats, gamma, stream, REFERENCE)
    assert served.failed == 0 and not served.problems
    assert served.telemetry["forward_passes"] == report.total_forward_passes
    assert served.telemetry["adapted_batches"] == report.telemetry["adapted_batches"]
    assert 100.0 * served.correct_samples / served.samples == pytest.approx(
        report.overall_accuracy, abs=1e-9
    )


def test_traced_pass_matches_untraced_and_sees_resolved_names(standard):
    config, model, stats, gamma, stream = standard
    short = serve.Stream(stream.features[:150], stream.labels[:150], stream.domain_ids[:150])
    plain = serve.serve(config, model, stats, gamma, short, REFERENCE)
    tracer = trace.Tracer()
    with tracer.patched(trace.SERVING_TARGETS):
        traced = serve.serve(config, model, stats, gamma, short, REFERENCE)
    # originals restored; pace re-exports functions over some submodule names
    controller_module = importlib.import_module("pace.controller")
    assert controller_module.fitness is importlib.import_module("pace.fitness").fitness
    assert plain.counts() == traced.counts()

    spans = tracer.spans()
    roots = spans.named("controller.process_batch")
    assert roots.sum() == 150
    assert spans.named("fitness").sum() == spans.named("model.forward").sum() > 0
    assert spans.named("controller.shift_score").sum() > 0
    assert spans.named("projection.fwht").sum() > 0
    # children plus self time add up to each batch's total
    np.testing.assert_allclose(spans.child_ms + spans.self_ms, spans.ms)
    assert np.all(spans.self_ms >= 0)
    assert np.array_equal(np.unique(spans.traces), np.arange(150))


def test_tracer_records_parents_traces_and_self_time():
    tracer = trace.Tracer()

    def leaf():
        time.sleep(0.002)

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def outer():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.002)

    wrapped_outer = tracer.wrap("outer", outer)
    wrapped_outer()
    wrapped_outer()
    spans = tracer.spans()
    assert list(spans.names) == ["outer", "leaf", "leaf"] * 2
    assert list(spans.parents) == [-1, 0, 0, -1, 3, 3]
    assert list(spans.traces) == [0, 0, 0, 1, 1, 1]
    outer_mask = spans.named("outer")
    np.testing.assert_allclose(
        spans.self_ms[outer_mask], spans.ms[outer_mask] - spans.child_ms[outer_mask]
    )
    assert np.all(spans.self_ms[outer_mask] >= 2.0)
    assert np.all(spans.child_ms[outer_mask] >= 4.0)


def test_median_of_passes_takes_per_batch_median_and_flags_differences(standard):
    config, model, stats, gamma, stream = standard
    short = serve.Stream(stream.features[:40], stream.labels[:40], stream.domain_ids[:40])
    passes = [serve.serve(config, model, stats, gamma, short, REFERENCE) for _ in range(3)]
    merged = serve.median_of_passes(passes)
    assert not merged.problems
    np.testing.assert_array_equal(
        merged.latency_s, np.median([p.latency_s for p in passes], axis=0)
    )
    passes[1] = replace(passes[1], digest="0" * 32)
    assert serve.median_of_passes(passes).problems


def test_detection_quality_from_domain_ids():
    ids = [0] * 5 + [1] * 5 + [2] * 5 + [0] * 5
    shifts = np.zeros(20, dtype=bool)
    shifts[[2, 6, 8, 10]] = True  # false, delay 1, false, delay 0; last boundary missed
    delays, false_shifts, missed = serve.detection_quality(shifts, ids)
    assert delays == [1, 0, 5]
    assert false_shifts == 2
    assert missed == 1


def test_probs_problem_rejects_invalid_rows():
    good = np.full((4, 3), 1 / 3)
    assert serve.probs_problem(good, 4, 3) is None
    nan = good.copy()
    nan[1, 1] = np.nan
    off = good.copy()
    off[0] = [0.5, 0.5, 1e-6]
    negative = good.copy()
    negative[2] = [1.2, -0.1, -0.1]
    for bad in (nan, off, negative, good[:3]):
        assert serve.probs_problem(bad, 4, 3) is not None


def test_every_integer_is_a_seed():
    workload = WORKLOADS["recurring-toy"]
    assert [c.seed for c in workload.configs(0, 30)] == list(range(6))
    assert [c.seed for c in workload.configs(3_000_000_000, 30)][0] == 3_000_000_000_000
    assert workload.configs(-1, 30)[0].seed == 1000 * (2**64 - 1)
    largest = workload.configs(-1, 30)[-1]
    assert largest.seed > 2**64
    assert serve.make_stream(largest).features[0].shape == (64, largest.in_dim)


def _run_bench(cwd, trace_flag):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-adapt", "--seed", "0",
         "--seconds", "1", "--trace", str(trace_flag)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace_flag, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace_flag, section):
    out = _run_bench(ROOT, trace_flag)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench(tmp_path, 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_compare_refuses_runs_at_different_blas_threads(tmp_path):
    paths = []
    for threads in ("1", "2"):
        run = {
            "detail": {
                "workload": "wide-adapt",
                "trace": 0,
                "environment": {"blas_threads": {"OPENBLAS_NUM_THREADS": threads}},
            },
            "result": {"metrics": {"setup_s": {"value": 1.0, "unit": "s"}}},
        }
        path = tmp_path / f"run{threads}.json"
        path.write_text(json.dumps(run))
        paths.append(str(path))
    assert compare_main(["--base", paths[0], "--change", paths[1]]) == 2
