"""End-to-end metrics from untraced passes, per-layer metrics from a traced pass.

Every value is a sum or a pooled statistic over all sub-streams of a run.
Each per-layer metric names the end-to-end metric and workload it should
move (see ``README.md`` next to this file).
"""
from __future__ import annotations

import resource
import statistics

import numpy as np

from .serve import detection_quality


def tail_percentile(n: int) -> float:
    """p99 where at least 10 samples lie beyond it, else the percentile with exactly 10 beyond.

    Never below the median: runs too short for a tail report p50 twice.
    """
    return 99.0 if n >= 1000 else max(50.0, 100.0 * (1 - 10 / n))


def _latency_ms(served) -> np.ndarray:
    return 1000.0 * np.concatenate([s.latency_s for s in served])


def end_to_end(served, setup_s) -> dict:
    latency = _latency_ms(served)
    batches = latency.shape[0]
    attempted = sum(s.batches for s in served)
    failed = sum(s.failed for s in served)
    forwards = sum(s.telemetry["forward_passes"] for s in served)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "batches_per_s": (1000.0 * batches / latency.sum(), "1/s"),
        "batch_ms_p50": (float(np.percentile(latency, 50)), "ms"),
        "batch_ms_tail": (float(np.percentile(latency, tail_percentile(batches))), "ms"),
        "cpu_ms_per_batch": (1000.0 * sum(s.cpu_s.sum() for s in served) / batches, "ms"),
        "accuracy_pct": (
            100.0 * sum(s.correct_samples for s in served) / sum(s.samples for s in served),
            "%",
        ),
        "forwards_per_batch": (forwards / sum(s.telemetry["batches"] for s in served), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_batch_pct": (100.0 * (attempted - failed) / attempted, "%"),
    }


def per_layer(spans, counters, traced, untraced_ms, setup_spans, generate_s, domain_ids) -> dict:
    """Per-layer numbers from the traced pass; ``untraced_ms`` is the overhead's base.

    Span times are as measured; the overhead compares nominal-speed times.
    """
    out = {}

    def calls_ms(name, span):
        mask = spans.named(span)
        out[f"{name}.calls"] = (int(mask.sum()), "count")
        out[f"{name}.ms"] = (float(spans.ms[mask].sum()), "ms")
        return mask

    # spans hold measured times, so shares are taken of the measured wall
    serving_ms = 1000.0 * sum(s.raw_serving_s for s in traced)

    def share(name, span):
        out[f"{name}.share_pct"] = (100.0 * spans.ms[spans.named(span)].sum() / serving_ms, "%")

    calls_ms("projection.transform", "projection.transform")
    out["projection.transform.rows"] = (int(counters.get("projection.transform.rows", 0)), "count")
    calls_ms("projection.fwht", "projection.fwht")

    forward = calls_ms("model.forward", "model.forward")
    roots = spans.named("controller.process_batch")
    adapting = np.concatenate([s.adapting_at_entry for s in traced])
    if roots.sum() != adapting.shape[0]:
        raise RuntimeError("traced batch count does not match the served batches")
    adapting_trace = np.zeros(spans.traces.max() + 1, dtype=bool)
    adapting_trace[spans.traces[roots]] = adapting
    retrieval = forward & spans.parent_named("bank.retrieve")
    direct = forward & ~retrieval
    in_adapting = adapting_trace[spans.traces]
    out["model.forward.adapt_ms"] = (float(spans.ms[direct & in_adapting].sum()), "ms")
    out["model.forward.frozen_ms"] = (float(spans.ms[direct & ~in_adapting].sum()), "ms")
    out["model.forward.retrieval_ms"] = (float(spans.ms[retrieval].sum()), "ms")

    calls_ms("fitness", "fitness")
    calls_ms("cmaes.sample", "cmaes.sample")
    calls_ms("cmaes.update", "cmaes.update")
    calls_ms("cmaes.reinit", "cmaes.reinit")
    out["cmaes.cond_max"] = (float(counters.get("cmaes.cond_max", 1.0)), "ratio")

    retrievals = calls_ms("bank.retrieve", "bank.retrieve").sum()
    out["bank.retrieve.candidates"] = (int(counters.get("bank.retrieve.candidates", 0)), "count")
    hits = counters.get("bank.retrieve.hits", 0)
    out["bank.hit_rate"] = (float(hits / retrievals) if retrievals else 0.0, "ratio")
    calls_ms("bank.archive", "bank.archive")
    out["bank.evictions"] = (int(counters.get("bank.evictions", 0)), "count")

    out["controller.process_batch.ms"] = (float(spans.ms[roots].sum()), "ms")
    out["controller.child_ms"] = (float(spans.child_ms[roots].sum()), "ms")
    out["controller.self_ms"] = (float(spans.self_ms[roots].sum()), "ms")
    root_ms = spans.ms[roots]
    for mode, mask in (("adapt", adapting), ("frozen", ~adapting)):
        value = float(np.median(root_ms[mask])) if mask.any() else 0.0
        out[f"controller.{mode}_batch_ms_p50"] = (value, "ms")
    calls_ms("controller.shift_score", "controller.shift_score")

    def total(key):
        return sum(s.telemetry[key] for s in traced)

    out["controller.adapted_batches"] = (total("adapted_batches"), "count")
    out["controller.frozen_batches"] = (total("frozen_batches"), "count")
    out["controller.stops"] = (total("stops"), "count")
    out["controller.shifts"] = (total("shifts_detected"), "count")
    out["controller.rescue_forwards"] = (total("rescue_forwards"), "count")
    delays, false_shifts, missed = [], 0, 0
    for served, ids in zip(traced, domain_ids):
        d, f, m = detection_quality(served.shift_detected, ids)
        delays += d
        false_shifts += f
        missed += m
    out["controller.false_shifts"] = (false_shifts, "count")
    out["controller.missed_boundaries"] = (missed, "count")
    out["controller.detect_delay_batches"] = (
        float(np.mean(delays)) if delays else 0.0,
        "batches",
    )

    for name, span in (
        ("projection.transform", "projection.transform"),
        ("model.forward", "model.forward"),
        ("fitness", "fitness"),
        ("cmaes.update", "cmaes.update"),
        ("bank.retrieve", "bank.retrieve"),
        ("controller.shift_score", "controller.shift_score"),
    ):
        share(name, span)

    def setup_median(span):
        return float(np.median(setup_spans.ms[setup_spans.named(span)])) / 1000.0

    out["model.pretrain_s"] = (setup_median("model.pretrain"), "s")
    out["bench.source_stats_s"] = (setup_median("bench.source_stats"), "s")
    out["bench.calibrate_gamma_s"] = (setup_median("bench.calibrate_gamma"), "s")
    out["bench.stream.generate_s"] = (statistics.median(generate_s), "s")
    traced_ms = float(_latency_ms(traced).sum())
    out["trace.overhead_pct"] = (100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")
    return out
