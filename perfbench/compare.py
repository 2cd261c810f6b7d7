"""Compare result files of two commits, metric by metric.

    python3 perfbench/compare.py --base .bench_out/a/*.json --change .bench_out/b/*.json

Each file is one run as written by ``run.py``.  All files must come from the
same workload and trace mode, and from the same BLAS thread setting: thread
count changes wall time, CPU time and even the counts, so runs at different
settings are refused rather than compared.  For each metric the script
prints both medians, the base's quartile spread, the change, and for
end-to-end metrics whether the change is worse than the bound fixed in
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def _setting(run):
    detail = run["detail"]
    return detail["workload"], detail["trace"], detail["environment"]["blas_threads"]


def _spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = _load(args.base), _load(args.change)
    settings = {json.dumps(_setting(run), sort_keys=True) for run in base + change}
    if len(settings) != 1:
        print("error: runs differ in workload, trace mode or BLAS threads:", file=sys.stderr)
        for setting in sorted(settings):
            print(f"  {setting}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    print(f"{'metric':34s} {'base':>12s} {'change':>12s} {'delta':>8s} {'spread':>7s}  verdict")
    worse = 0
    for name in base[0]["result"]["metrics"]:
        a = [run["result"]["metrics"][name]["value"] for run in base]
        b = [run["result"]["metrics"][name]["value"] for run in change]
        ma, mb = statistics.median(a), statistics.median(b)
        delta = (mb - ma) / abs(ma) if ma else float("nan")
        better = (e2e.get(name) or per_layer.get(name) or {}).get("better", "lower")
        worsening = -delta if better == "higher" else delta
        verdict = ""
        if name in e2e:
            verdict = "WORSE than bound" if worsening > e2e[name]["bound"] else "within bound"
            worse += worsening > e2e[name]["bound"]
        print(f"{name:34s} {ma:12.4f} {mb:12.4f} {100 * delta:7.2f}% {_spread(a):7.4f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
