"""Closed-loop serving with one caller, output checks, and metrics-side quality.

``serve`` calls ``PaceController.process_batch`` back to back on batches that
were generated before timing starts.  The controller is strictly sequential
and keeps no queue, so the per-batch service time is the latency the caller
sees.  Labels and domain ids never reach the controller; they are used here,
after each call, for accuracy and detection quality.

On a shared machine the same work runs up to 2x slower for spells of seconds
to minutes.  So every ``REFERENCE_INTERVAL_S`` of serving, outside the timed
calls, a fixed kernel of the benchmark's own is timed; it does the work the
workload does (a 64 x width by width x width product, layer norm, softmax),
and its time rises and falls with the program's.  Reported times are at
nominal machine speed: each pass's times are scaled by the kernel's nominal
time over its median time during that pass.
"""
from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from pace.bench.run import controller_config_for_method
from pace.bench.stream import generate_stream
from pace.controller import ADAPTING, PaceController

PROB_SUM_TOL = 1e-9
REFERENCE_INTERVAL_S = 0.1


@dataclass(frozen=True)
class Reference:
    """The speed-tracking kernel: ``iterations`` layers of width ``width``.

    ``nominal_s`` is one call's time at nominal speed, taken as the 10th
    percentile of 2000 calls on a 2-CPU Xeon box (about 3.2 ms for both
    workloads' kernels), so nominal-speed times read like that box's
    uncontended times.
    """

    width: int
    iterations: int
    nominal_s: float

    @cached_property
    def _arrays(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, self.width))
        return x, rng.standard_normal((self.width, self.width)) / np.sqrt(self.width)

    def time(self) -> float:
        x, w = self._arrays
        start = time.perf_counter()
        for _ in range(self.iterations):
            z = x @ w
            z = (z - z.mean(axis=1, keepdims=True)) / np.sqrt(z.var(axis=1, keepdims=True) + 1e-5)
            e = np.exp(z - z.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
        return time.perf_counter() - start

    def speed(self, samples) -> float:
        """Factor that scales times measured beside ``samples`` to nominal speed."""
        return self.nominal_s / float(np.median(samples))


@dataclass
class Stream:
    """A sub-stream materialized before timing starts."""

    features: list[np.ndarray]
    labels: list[np.ndarray]
    domain_ids: np.ndarray


@dataclass
class Served:
    """What serving one sub-stream produced; times are per batch, at nominal speed."""

    latency_s: np.ndarray
    cpu_s: np.ndarray
    raw_serving_s: float  # summed service time as measured, before scaling
    adapting_at_entry: np.ndarray  # bool per batch: the path process_batch took
    shift_detected: np.ndarray
    telemetry: dict
    correct_samples: int
    samples: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)

    @property
    def batches(self) -> int:
        return self.latency_s.shape[0]

    def counts(self) -> dict:
        """Everything that must repeat exactly for the same inputs."""
        return {
            "telemetry": self.telemetry,
            "correct_samples": self.correct_samples,
            "failed": self.failed,
            "shifts": self.shift_detected.tolist(),
            "adapting": self.adapting_at_entry.tolist(),
            "digest": self.digest,
        }


def median_of_passes(passes: list[Served]) -> Served:
    """One record for repeated passes over the same sub-stream.

    Each batch's time is its median over the passes, which drops the pass
    that ran while the machine was slow.  The passes must agree exactly on
    outputs and counts.
    """
    first = passes[0]
    problems = [p for served in passes for p in served.problems]
    if any(served.counts() != first.counts() for served in passes[1:]):
        problems.append("repeated passes over the same inputs differ")
    return replace(
        first,
        latency_s=np.median([s.latency_s for s in passes], axis=0),
        cpu_s=np.median([s.cpu_s for s in passes], axis=0),
        raw_serving_s=float(np.median([s.raw_serving_s for s in passes])),
        problems=problems,
    )


def make_stream(config) -> Stream:
    batches = list(generate_stream(config.stream_config()))
    return Stream(
        features=[b.features for b in batches],
        labels=[b.labels for b in batches],
        domain_ids=np.array([b.domain_id for b in batches]),
    )


def probs_problem(probs, batch_size: int, class_count: int) -> str | None:
    """Why a probability matrix is not a valid output, or None if it is."""
    probs = np.asarray(probs)
    if probs.shape != (batch_size, class_count):
        return f"shape {probs.shape}, expected {(batch_size, class_count)}"
    if not np.all(np.isfinite(probs)):
        return "non-finite probability"
    if np.any(probs < 0) or np.any(probs > 1):
        return "probability outside [0, 1]"
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > PROB_SUM_TOL:
        return f"row sum off by {worst:.3g}"
    return None


def serve(config, model, source_stats, gamma, stream: Stream, reference: Reference) -> Served:
    """Serve ``stream`` with a fresh controller; check every output and the telemetry."""
    controller = PaceController(model, source_stats, controller_config_for_method(config, gamma))
    reference_s = [reference.time()]
    last_reference = time.perf_counter()
    n = len(stream.features)
    latency = np.empty(n)
    adapting = np.zeros(n, dtype=bool)
    shifts = np.zeros(n, dtype=bool)
    cpu = np.empty(n)
    correct = samples = failed = 0
    problems = []
    digest = hashlib.blake2b(digest_size=16)
    for i, X in enumerate(stream.features):
        if time.perf_counter() - last_reference >= REFERENCE_INTERVAL_S:
            reference_s.append(reference.time())
            last_reference = time.perf_counter()
        adapting[i] = controller.mode == ADAPTING
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            probs, report = controller.process_batch(X)
        except Exception:  # a failed batch is counted, the stream goes on
            latency[i] = time.perf_counter() - t0
            cpu[i] = time.process_time() - c0
            failed += 1
            problems.append(f"seed {config.seed} batch {i} raised:\n{traceback.format_exc()}")
            continue
        latency[i] = time.perf_counter() - t0
        cpu[i] = time.process_time() - c0
        problem = probs_problem(probs, X.shape[0], model.class_count)
        if problem is not None:
            failed += 1
            problems.append(f"seed {config.seed} batch {i}: {problem}")
            continue
        shifts[i] = report.shift_detected
        digest.update(probs.tobytes())
        correct += int(np.sum(np.argmax(probs, axis=1) == stream.labels[i]))
        samples += X.shape[0]

    reference_s.append(reference.time())
    speed = reference.speed(reference_s)

    telemetry = controller.telemetry
    if not telemetry.identity_holds(controller.config.population_size):
        problems.append(f"forward-pass accounting identity violated: {telemetry.as_dict()}")
    if telemetry.batches != telemetry.adapted_batches + telemetry.frozen_batches:
        problems.append(f"batches != adapted + frozen: {telemetry.as_dict()}")
    return Served(
        latency_s=latency * speed,
        cpu_s=cpu * speed,
        raw_serving_s=float(latency.sum()),
        adapting_at_entry=adapting,
        shift_detected=shifts,
        telemetry=telemetry.as_dict(),
        correct_samples=correct,
        samples=samples,
        failed=failed,
        digest=digest.hexdigest(),
        problems=problems,
    )


def detection_quality(shift_detected, domain_ids) -> tuple[list[int], int, int]:
    """(delays, false shifts, missed boundaries) from the stream's domain ids.

    A true boundary is a batch whose domain id differs from the previous
    batch's.  The first detection at or after a boundary, and before the next
    one, detects it; its delay is the distance in batches (0 = detected on
    the first batch of the new domain).  A missed boundary's delay is its
    whole segment length, so misses raise the mean instead of vanishing from
    it.  Every other detection is false.
    """
    shift_detected = np.asarray(shift_detected, dtype=bool)
    domain_ids = np.asarray(domain_ids)
    starts = [0] + [int(i) for i in np.flatnonzero(domain_ids[1:] != domain_ids[:-1]) + 1]
    ends = starts[1:] + [len(domain_ids)]
    delays, false_shifts, missed = [], 0, 0
    for segment, (lo, hi) in enumerate(zip(starts, ends)):
        hits = np.flatnonzero(shift_detected[lo:hi])
        if segment == 0:  # the stream's first domain follows no boundary
            false_shifts += len(hits)
        elif len(hits):
            delays.append(int(hits[0]))
            false_shifts += len(hits) - 1
        else:
            delays.append(hi - lo)
            missed += 1
    return delays, false_shifts, missed
