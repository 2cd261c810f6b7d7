"""Unsupervised objective: prediction entropy plus activation-statistics drift."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ActivationStats, SourceStats
from .validation import check_real


@dataclass(frozen=True)
class FitnessConfig:
    """``lambda_weight`` balances the statistics term against the entropy term."""

    lambda_weight: float = 0.4

    def __post_init__(self):
        check_real(self.lambda_weight, "lambda_weight")
        if not np.isfinite(self.lambda_weight) or self.lambda_weight < 0:
            raise ValueError(f"lambda_weight must be finite and >= 0, got {self.lambda_weight}")


def entropy_term(probs: np.ndarray):
    """Mean entropy contribution, normalized by batch size times class count.

    ``probs`` of shape ``(B, C)`` gives a float, ``(K, B, C)`` a ``(K,)`` array.
    """
    *population, B, C = probs.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    value = -plogp.reshape(*population, B * C).sum(axis=-1) / (B * C)
    return value if population else float(value)


def _norm(x: np.ndarray) -> np.ndarray:
    """L2 norm over the last axis, one BLAS dot per row as ``np.linalg.norm`` takes it."""
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0])


def stats_term(stats: ActivationStats, source: SourceStats):
    """Sum over blocks of L2 distances between batch and source moments.

    Per-block statistics of shape ``(w,)`` give a float, ``(K, w)`` a
    ``(K,)`` array whose entry k equals the sum for candidate k alone.
    """
    if len(stats.means) != len(source.means):
        raise ValueError(
            f"block count mismatch: batch has {len(stats.means)}, source {len(source.means)}"
        )
    total = 0.0
    for mu, sd, mu_s, sd_s in zip(stats.means, stats.stds, source.means, source.stds):
        if mu.shape[-1:] != mu_s.shape or sd.shape[-1:] != sd_s.shape:
            raise ValueError("activation statistics dimensions do not match source")
        total = total + (_norm(mu - mu_s) + _norm(sd - sd_s))
    return total if np.ndim(total) else float(total)


def fitness(probs, stats: ActivationStats, source: SourceStats, config: FitnessConfig):
    """Entropy term plus ``lambda_weight`` times the statistics term (both >= 0).

    Scores one candidate, ``probs`` of shape ``(B, C)``, as a float, or a
    population, ``(K, B, C)`` with ``(K, w)`` statistics, as a ``(K,)``
    array whose entry k equals the score of candidate k alone.

    A row whose probabilities are not all finite, or whose score is not
    finite, scores ``inf``, without warnings.  Non-finite statistics make the
    score non-finite even at ``lambda_weight = 0`` (0 * inf is nan).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim not in (2, 3):
        raise ValueError(f"probs must be 2-D or 3-D, got shape {probs.shape}")
    if np.any(probs < 0):
        raise ValueError("probs contains negative entries")
    with np.errstate(over="ignore", invalid="ignore"):
        score = entropy_term(probs) + config.lambda_weight * stats_term(stats, source)
    finite = np.isfinite(probs).all(axis=(-2, -1)) & np.isfinite(score)
    if probs.ndim == 2:
        return score if finite else np.inf
    return np.where(finite, score, np.inf)
