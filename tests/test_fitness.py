from __future__ import annotations

import warnings

import numpy as np
import pytest

from pace.fitness import FitnessConfig, entropy_term, fitness, stats_term
from pace.model import ActivationStats, SourceStats


def make_stats(means, stds, stem_dim=2):
    return ActivationStats(
        means=[np.asarray(m, dtype=float) for m in means],
        stds=[np.asarray(s, dtype=float) for s in stds],
        stem_mean=np.zeros(stem_dim),
        stem_var=np.ones(stem_dim),
    )


def make_source(means, stds):
    return SourceStats(
        means=[np.asarray(m, dtype=float) for m in means],
        stds=[np.asarray(s, dtype=float) for s in stds],
    )


class TestFitness:
    def test_one_hot_and_matching_stats_give_zero(self):
        probs = np.eye(4)[[0, 2, 1, 3, 0]]
        stats = make_stats([[1.0, 2.0]], [[0.5, 0.5]])
        source = make_source([[1.0, 2.0]], [[0.5, 0.5]])
        assert fitness(probs, stats, source, FitnessConfig(0.4)) == 0.0

    def test_uniform_probs_closed_form(self):
        B, C = 6, 5
        probs = np.full((B, C), 1.0 / C)
        stats = make_stats([[0.0]], [[1.0]])
        source = make_source([[0.0]], [[1.0]])
        value = fitness(probs, stats, source, FitnessConfig(0.0))
        assert value == pytest.approx(np.log(C) / C, abs=1e-12)

    def test_combination_against_naive_double_loop(self):
        rng = np.random.default_rng(0)
        B, C, L, W = 8, 3, 2, 4
        raw = rng.random((B, C))
        probs = raw / raw.sum(axis=1, keepdims=True)
        means = [rng.standard_normal(W) for _ in range(L)]
        stds = [rng.random(W) + 0.1 for _ in range(L)]
        s_means = [rng.standard_normal(W) for _ in range(L)]
        s_stds = [rng.random(W) + 0.1 for _ in range(L)]
        stats = make_stats(means, stds)
        source = make_source(s_means, s_stds)

        # naive oracle: explicit loops over samples, classes, blocks, features
        entropy = 0.0
        for b in range(B):
            for c in range(C):
                y = probs[b, c]
                if y > 0:
                    entropy -= y * np.log(y)
        entropy /= B * C
        penalty = 0.0
        for i in range(L):
            mu_sq = sum((means[i][j] - s_means[i][j]) ** 2 for j in range(W))
            sd_sq = sum((stds[i][j] - s_stds[i][j]) ** 2 for j in range(W))
            penalty += mu_sq**0.5 + sd_sq**0.5
        expected = entropy + 0.4 * penalty

        assert fitness(probs, stats, source, FitnessConfig(0.4)) == pytest.approx(
            expected, abs=1e-10
        )

    def test_zero_log_zero_is_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        stats = make_stats([[0.0]], [[0.0]])
        source = make_source([[0.0]], [[0.0]])
        assert fitness(probs, stats, source, FitnessConfig(1.0)) == 0.0

    def test_non_negative_over_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            raw = rng.random((4, 6))
            probs = raw / raw.sum(axis=1, keepdims=True)
            stats = make_stats([rng.standard_normal(3)], [rng.random(3)])
            source = make_source([rng.standard_normal(3)], [rng.random(3)])
            lam = float(rng.random())
            assert fitness(probs, stats, source, FitnessConfig(lam)) >= 0.0

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(2)
        raw = rng.random((4, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        stats = make_stats([[1.0, 1.0]], [[1.0, 1.0]])
        source = make_source([[0.0, 0.0]], [[0.5, 0.5]])
        values = [fitness(probs, stats, source, FitnessConfig(lam)) for lam in (0.0, 0.2, 0.4, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(3)
        raw = rng.random((10, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        stats = make_stats([[0.5]], [[0.5]])
        source = make_source([[0.0]], [[1.0]])
        cfg = FitnessConfig(0.4)
        base = fitness(probs, stats, source, cfg)
        for _ in range(5):
            perm = rng.permutation(10)
            assert fitness(probs[perm], stats, source, cfg) == pytest.approx(base, abs=1e-14)

    def test_nan_probabilities_with_finite_statistics_rank_last(self):
        # only the probability test sees this row: the entropy term maps nan to 0
        rng = np.random.default_rng(4)
        raw = rng.random((3, 5, 4))
        clean = raw / raw.sum(axis=-1, keepdims=True)
        stats = make_stats([rng.standard_normal((3, 2))], [rng.random((3, 2))])
        source = make_source([[0.0, 0.0]], [[1.0, 1.0]])
        cfg = FitnessConfig(0.4)
        probs = clean.copy()
        probs[1, 2, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = fitness(probs, stats, source, cfg)
            row = make_stats([stats.means[0][1]], [stats.stds[0][1]])
            single = fitness(probs[1], row, source, cfg)
        expected = fitness(clean, stats, source, cfg)
        assert scores.shape == (3,) and scores[1] == np.inf
        np.testing.assert_array_equal(scores[[0, 2]], expected[[0, 2]])
        assert single == np.inf

    def test_rejects_negative_probs(self):
        stats = make_stats([[0.0]], [[1.0]])
        source = make_source([[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="negative"):
            fitness(np.array([[-0.1, 1.1]]), stats, source, FitnessConfig(0.4))

    def test_rejects_probs_of_one_or_four_dimensions(self):
        stats = make_stats([[0.0]], [[1.0]])
        source = make_source([[0.0]], [[1.0]])
        for probs in (np.full(2, 0.5), np.full((1, 1, 2, 2), 0.5)):
            with pytest.raises(ValueError, match="probs must be 2-D or 3-D"):
                fitness(probs, stats, source, FitnessConfig(0.4))

    def test_rejects_dimension_mismatch(self):
        probs = np.full((2, 2), 0.5)
        stats = make_stats([[0.0, 1.0]], [[1.0, 1.0]])
        source = make_source([[0.0]], [[1.0]])
        with pytest.raises(ValueError, match="dimensions"):
            fitness(probs, stats, source, FitnessConfig(0.4))
        source_two_blocks = make_source([[0.0]], [[1.0]])
        source_two_blocks.means.append(np.zeros(1))
        source_two_blocks.stds.append(np.ones(1))
        with pytest.raises(ValueError, match="block count"):
            fitness(probs, stats, source_two_blocks, FitnessConfig(0.4))

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            FitnessConfig(-0.1)
        with pytest.raises(ValueError):
            FitnessConfig(np.nan)

    def test_terms_exposed(self):
        probs = np.full((2, 2), 0.5)
        assert entropy_term(probs) == pytest.approx(np.log(2) / 2)
        stats = make_stats([[3.0]], [[1.0]])
        source = make_source([[0.0]], [[1.0]])
        assert stats_term(stats, source) == pytest.approx(3.0)
