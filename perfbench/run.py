"""pace serving benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload recurring-toy --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up (pretraining, source statistics, gamma calibration) and
stream generation happen before timing.  Then every sub-stream is served
closed loop with one caller.  End-to-end times are at nominal machine speed
(see serve.py); the measured times are in the detail line.  With
``--trace 0`` the last line holds the end-to-end metrics.  With ``--trace 1``
the run serves its first ``TRACED_SUBSTREAMS`` sub-streams twice, untraced
and then traced, and reports per-layer metrics; it checks that all passes
give identical outputs and counts.

The result, the environment and per-sub-stream counts are also written to
``.bench_out/``, and spans of traced runs next to them.  Any failed output
check makes ``correct`` false and the exit code 1.
"""
from __future__ import annotations

import os

# fixed before numpy loads: BLAS threads change wall time, CPU time and even
# the counts, so runs are only comparable at one setting (see compare.py)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WARMUP_BATCHES = 20
SETUP_REFERENCE_CALLS = 5  # reference kernel calls right before and after each set-up
TRACED_SUBSTREAMS = 3  # per-layer metrics have no bound; this keeps traced runs short


def _import_program():
    """Import pace from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import pace
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pace from {src}: {exc}")
    if not Path(pace.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: pace was imported from {pace.__file__}, not from {src}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_lines = sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def _parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    _import_program()
    # pace.bench re-exports a function named ``run`` over the submodule
    bench_run = importlib.import_module("pace.bench.run")
    from perfbench import metrics, serve, trace
    from perfbench.workloads import WORKLOADS

    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        configs = workload.configs(args.seed, args.seconds)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    tracing = bool(args.trace)
    if tracing:
        configs = configs[:TRACED_SUBSTREAMS]

    reference = workload.reference
    setup_tracer = trace.Tracer()
    prepared, setup_s, raw_setup_s, generate_s = [], [], [], []
    for config in configs:
        patches = setup_tracer.patched(trace.SETUP_TARGETS) if tracing else nullcontext()
        reference_s = [reference.time() for _ in range(SETUP_REFERENCE_CALLS)]
        start = time.perf_counter()
        with patches:
            model, source_stats, gamma = bench_run.prepare_assets(config)
        raw_setup_s.append(time.perf_counter() - start)
        reference_s += [reference.time() for _ in range(SETUP_REFERENCE_CALLS)]
        setup_s.append(raw_setup_s[-1] * reference.speed(reference_s))
        start = time.perf_counter()
        stream = serve.make_stream(config)
        generate_s.append(time.perf_counter() - start)
        prepared.append((config, model, source_stats, gamma, stream))

    # one untimed partial pass, so allocator and caches settle before timing
    *assets, stream = prepared[0]
    head = slice(WARMUP_BATCHES)
    warmup = serve.Stream(stream.features[head], stream.labels[head], stream.domain_ids[head])
    serve.serve(*assets, warmup, reference)

    # passes alternate over the sub-streams, so one sub-stream's passes lie
    # seconds apart and a slow spell of the machine rarely hits more than one
    passes = [
        [serve.serve(*entry, reference) for entry in prepared] for _ in range(workload.passes)
    ]
    untraced = [serve.median_of_passes(list(group)) for group in zip(*passes)]
    served = [s for group in passes for s in group]
    checked = list(untraced)  # carry the problems of every pass
    if tracing:
        serving_tracer = trace.Tracer()
        with serving_tracer.patched(trace.SERVING_TARGETS):
            traced = [serve.serve(*entry, reference) for entry in prepared]
        for plain, wrapped in zip(untraced, traced):
            if plain.counts() != wrapped.counts():
                wrapped.problems.append("traced pass differs from the untraced passes")
        spans = serving_tracer.spans()
        # the single traced pass is compared with the average untraced pass
        untraced_ms = 1000.0 * sum(s.latency_s.sum() for s in served) / workload.passes
        served += traced
        checked += traced
        values = metrics.per_layer(
            spans,
            serving_tracer.counters,
            traced,
            untraced_ms,
            setup_tracer.spans(),
            generate_s,
            [entry[-1].domain_ids for entry in prepared],
        )
    else:
        values = metrics.end_to_end(untraced, setup_s)
    for problem in (p for s in checked for p in s.problems):
        print(f"check failed: {problem}", file=sys.stderr)

    attempted = sum(s.batches for s in served)
    failed = sum(s.failed for s in served)
    result = {
        "correct": failed == 0 and not any(s.problems for s in checked),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "latency_samples": sum(s.batches for s in untraced),
        "tail_percentile": metrics.tail_percentile(sum(s.batches for s in untraced)),
        "substreams": [
            {
                "run_seed": config.seed,
                "setup_s": setup,
                "raw_setup_s": raw_setup,
                "serving_s": float(s.latency_s.sum()),
                "raw_serving_s": s.raw_serving_s,
                "accuracy_pct": 100.0 * s.correct_samples / max(s.samples, 1),
                **s.telemetry,
            }
            for config, setup, raw_setup, s in zip(configs, setup_s, raw_setup_s, untraced)
        ],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
        fh.write("\n")
    if tracing:
        spans.save(stem.with_suffix(".spans.npz"))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
