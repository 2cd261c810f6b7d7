"""Synthetic non-stationary evaluation streams.

A stream is a deterministic sequence of labeled batches: clean samples from
the ``blobs8`` task (Gaussian blobs, one per class), scaled per domain by the
``feature_scale`` corruption, which multiplies features 0, 2, 4, ... by the
domain's severity and divides the others by it.  Labels and domain ids travel
alongside the features for the metrics layer only; the adapter never sees
them.  Recurring-domain protocols repeat the domain sequence for ``rounds``
passes, re-applying identical scales to fresh samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..validation import check_int, store_int, store_real

# spawn-key tags for the independent random streams; their values fix every stream's bits
_TAG_TASK = 0
_TAG_BATCH = 2
_TAG_SOURCE = 3


@dataclass(frozen=True)
class DomainSpec:
    kind: str
    severity: float
    batch_count: int

    def __post_init__(self):
        if self.kind != "feature_scale":
            raise ValueError(f"unknown corruption kind: {self.kind!r}, expected 'feature_scale'")
        store_real(self, "severity", 0, np.inf, "()")
        store_int(self, "batch_count")


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
        if self.base_task != "blobs8":
            raise ValueError(f"unknown base task: {self.base_task!r}, expected 'blobs8'")
        if not self.domain_sequence:
            raise ValueError("domain_sequence is empty")
        store_int(self, "in_dim")
        store_int(self, "class_count", minimum=2)
        store_int(self, "batch_size")
        store_int(self, "rounds")
        store_int(self, "seed", minimum=0)
        store_real(self, "blob_radius", 0, np.inf, "[)")
        store_real(self, "blob_std", 0, np.inf, "[)")
        store_real(self, "blob_center", -np.inf, np.inf, "()")

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
        try:
            specs.append(DomainSpec(pieces[0], float(pieces[1]), int(pieces[2])))
        except ValueError as exc:
            raise ValueError(f"bad domain spec {part!r}: {exc}") from exc
    if not specs:
        raise ValueError("domain sequence is empty")
    return tuple(specs)


def _format_severity(severity: float) -> str:
    """``:g`` where that is exact, the form existing fingerprints hash; else the exact repr."""
    short = f"{severity:g}"
    return short if float(short) == severity else repr(float(severity))


def format_domain_sequence(seq: tuple[DomainSpec, ...]) -> str:
    """Inverse of ``parse_domain_sequence``: parsing the text gives ``seq`` back."""
    return ",".join(f"{d.kind}:{_format_severity(d.severity)}:{d.batch_count}" for d in seq)


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
    X = centers[labels] + cfg.blob_std * rng.standard_normal((n, cfg.in_dim))
    return X, labels


def generate_stream(cfg: StreamConfig) -> Iterator[StreamBatch]:
    """Yield the full stream in temporal order, deterministically from the seed."""
    centers = _task_centers(cfg)
    # alternating stretch/shrink, fixed per domain position; severity 1.0 is the identity
    exponents = np.where(np.arange(cfg.in_dim) % 2 == 0, 1.0, -1.0)
    scales = [spec.severity**exponents for spec in cfg.domain_sequence]
    index = 0
    for round_idx in range(cfg.rounds):
        for seq_index, spec in enumerate(cfg.domain_sequence):
            for b in range(spec.batch_count):
                rng = _rng(cfg.seed, _TAG_BATCH, round_idx, seq_index, b)
                X, labels = _sample_clean(cfg, rng, cfg.batch_size, centers)
                X = X * scales[seq_index]
                yield StreamBatch(features=X, labels=labels, domain_id=seq_index, index=index)
                index += 1


def make_source_batches(
    cfg: StreamConfig, n_samples: int, batch_size: int | None = None, tag: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Clean in-distribution batches (features, labels) for training and statistics."""
    check_int(n_samples, "n_samples")
    batch_size = cfg.batch_size if batch_size is None else check_int(batch_size, "batch_size")
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
