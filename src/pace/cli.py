"""Command-line interface: run benchmarks, calibrate the shift threshold, compare runs."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .bench.run import (
    METHODS,
    RunConfig,
    compare,
    load_summary,
    prepare_assets,
    run_prepared,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pace")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one method over a synthetic stream")
    p_run.add_argument("--config", help="key = value config file")
    p_run.add_argument("--method", choices=METHODS)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--epsilon", type=float)
    p_run.add_argument("--gamma", type=float)
    p_run.add_argument("--bank-capacity", type=int, dest="bank_capacity")
    p_run.add_argument("--population", type=int)
    p_run.add_argument("--dim", type=int)
    p_run.add_argument("--out", dest="out_dir")

    p_cal = sub.add_parser("calibrate-gamma", help="calibrate the shift threshold")
    p_cal.add_argument("--config", help="key = value config file")

    p_cmp = sub.add_parser("compare", help="compare two run summaries")
    p_cmp.add_argument("summary_a")
    p_cmp.add_argument("summary_b")
    return parser


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    keys = {f.name for f in fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    return replace(config, **overrides)


def _cmd_run(args) -> int:
    config = _load_config(args)
    model, source_stats, gamma = prepare_assets(config)
    report = run_prepared(config, model, source_stats, gamma)
    print(
        f"method={report.method} seed={report.seed} "
        f"accuracy={report.overall_accuracy:.2f}% "
        f"adapted={100 * report.adapted_fraction:.1f}% "
        f"forward_passes={report.total_forward_passes} "
        f"wall={report.wall_seconds:.1f}s"
    )
    if config.out_dir:
        print(f"outputs written to {config.out_dir}")
    return 0


def _cmd_calibrate(args) -> int:
    _, _, gamma = prepare_assets(replace(_load_config(args), gamma=None))
    print(json.dumps({"gamma": gamma}))
    return 0


def _cmd_compare(args) -> int:
    report_a = load_summary(args.summary_a)
    report_b = load_summary(args.summary_b)
    delta = compare(report_a, report_b)
    print(json.dumps(delta, indent=2))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "calibrate-gamma": _cmd_calibrate,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
