"""Synthetic non-stationary evaluation streams.

A stream is a deterministic sequence of labeled batches: clean samples from a
base task, pushed through a per-domain corruption.  Labels and domain ids
travel alongside the features for the metrics layer only; the adapter never
sees them.  Recurring-domain protocols repeat the domain sequence for
``rounds`` passes, re-applying identical corruptions to fresh samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..validation import check_int, check_positive

CORRUPTION_KINDS = ("gauss_noise", "feature_scale", "rotation", "mask")

# spawn-key tags for the independent random streams
_TAG_TASK = 0
_TAG_DOMAIN = 1
_TAG_BATCH = 2
_TAG_SOURCE = 3

# the rings task: class c lies on the shell of radius _RING_BASE + _RING_GAP * c,
# blurred radially by _RING_STD
_RING_BASE = 2.0
_RING_GAP = 1.2
_RING_STD = 0.25


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    severity: float
    batch_count: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind: {self.kind!r}")
        check_positive(self.severity, "severity")
        check_int(self.batch_count, "batch_count")


@dataclass(frozen=True)
class StreamConfig:
    domain_sequence: tuple[DomainSpec, ...]
    base_task: str = "blobs8"
    in_dim: int = 16
    class_count: int = 8
    batch_size: int = 64
    rounds: int = 1
    seed: int = 0
    blob_radius: float = 4.0
    blob_std: float = 1.0
    blob_center: float = 0.0  # distance of the constellation center from the origin

    def __post_init__(self):
        if self.base_task not in ("blobs8", "rings"):
            raise ValueError(f"unknown base task: {self.base_task!r}")
        if not self.domain_sequence:
            raise ValueError("domain_sequence is empty")
        check_int(self.batch_size, "batch_size")
        check_int(self.rounds, "rounds")
        if not self.blob_std >= 0:  # the not-form also rejects nan
            raise ValueError(f"blob_std must be >= 0, got {self.blob_std}")

    @property
    def total_batches(self) -> int:
        return self.rounds * sum(d.batch_count for d in self.domain_sequence)


@dataclass
class StreamBatch:
    """One test batch; labels and domain_id are for evaluation only."""

    features: np.ndarray
    labels: np.ndarray
    domain_id: int
    index: int


def parse_domain_sequence(text: str) -> tuple[DomainSpec, ...]:
    """Parse ``kind:severity:count[,kind:severity:count...]``."""
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"bad domain spec {part!r}, expected kind:severity:count")
        specs.append(DomainSpec(pieces[0], float(pieces[1]), int(pieces[2])))
    if not specs:
        raise ValueError("domain sequence is empty")
    return tuple(specs)


def format_domain_sequence(seq: tuple[DomainSpec, ...]) -> str:
    return ",".join(f"{d.kind}:{d.severity:g}:{d.batch_count}" for d in seq)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _task_centers(cfg: StreamConfig) -> np.ndarray:
    rng = _rng(cfg.seed, _TAG_TASK)
    if cfg.in_dim == 2:
        # equally spaced on the circle (random directions clump in 2-D),
        # with a seed-dependent phase
        phase = rng.uniform(0, 2 * np.pi)
        angles = phase + 2 * np.pi * np.arange(cfg.class_count) / cfg.class_count
        unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        raw = rng.standard_normal((cfg.class_count, cfg.in_dim))
        unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    centers = unit * cfg.blob_radius
    if cfg.blob_center:
        direction = rng.standard_normal(cfg.in_dim)
        direction /= np.linalg.norm(direction)
        centers = centers + cfg.blob_center * direction
    return centers


def _sample_clean(cfg: StreamConfig, rng: np.random.Generator, n: int, centers):
    labels = rng.integers(0, cfg.class_count, size=n)
    if cfg.base_task == "blobs8":
        X = centers[labels] + cfg.blob_std * rng.standard_normal((n, cfg.in_dim))
    else:  # rings: concentric shells, one radius band per class
        direction = rng.standard_normal((n, cfg.in_dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = _RING_BASE + _RING_GAP * labels + _RING_STD * rng.standard_normal(n)
        X = direction * radii[:, None]
    return X, labels


class _CorruptionOp:
    """Domain-level corruption with parameters fixed once per domain position."""

    def __init__(self, cfg: StreamConfig, seq_index: int, spec: DomainSpec):
        self.spec = spec
        n = cfg.in_dim
        rng = _rng(cfg.seed, _TAG_DOMAIN, seq_index)
        if spec.kind == "feature_scale":
            # alternating stretch/shrink; severity 1.0 is the identity
            exponents = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            self.scale = spec.severity**exponents
        elif spec.kind == "rotation":
            # plane rotations by `severity` radians on consecutive coordinate pairs
            rot = np.eye(n)
            c, s = np.cos(spec.severity), np.sin(spec.severity)
            for j in range(0, n - 1, 2):
                rot[j, j], rot[j, j + 1] = c, -s
                rot[j + 1, j], rot[j + 1, j + 1] = s, c
            self.rotation = rot
        elif spec.kind == "mask":
            count = min(n, max(1, int(round(spec.severity * n))))
            self.masked = rng.choice(n, size=count, replace=False)

    def apply(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        kind = self.spec.kind
        if kind == "gauss_noise":
            return X + self.spec.severity * rng.standard_normal(X.shape)
        if kind == "feature_scale":
            return X * self.scale
        if kind == "rotation":
            return X @ self.rotation.T
        out = X.copy()
        out[:, self.masked] = 0.0
        return out


def generate_stream(cfg: StreamConfig) -> Iterator[StreamBatch]:
    """Yield the full stream in temporal order, deterministically from the seed."""
    centers = _task_centers(cfg)
    ops = [_CorruptionOp(cfg, si, spec) for si, spec in enumerate(cfg.domain_sequence)]
    index = 0
    for round_idx in range(cfg.rounds):
        for seq_index, spec in enumerate(cfg.domain_sequence):
            op = ops[seq_index]
            for b in range(spec.batch_count):
                rng = _rng(cfg.seed, _TAG_BATCH, round_idx, seq_index, b)
                X, labels = _sample_clean(cfg, rng, cfg.batch_size, centers)
                X = op.apply(X, rng)
                yield StreamBatch(features=X, labels=labels, domain_id=seq_index, index=index)
                index += 1


def make_source_batches(
    cfg: StreamConfig, n_samples: int, batch_size: int | None = None, tag: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Clean in-distribution batches (features, labels) for training and statistics."""
    batch_size = batch_size or cfg.batch_size
    centers = _task_centers(cfg)
    batches = []
    remaining = n_samples
    i = 0
    while remaining > 0:
        n = min(batch_size, remaining)
        rng = _rng(cfg.seed, _TAG_SOURCE, tag, i)
        batches.append(_sample_clean(cfg, rng, n, centers))
        remaining -= n
        i += 1
    return batches
