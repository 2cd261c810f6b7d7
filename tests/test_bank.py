from __future__ import annotations

import numpy as np
import pytest

import pace.bank
from pace.bank import VectorBank, mean_pairwise_cosine
from pace.fitness import FitnessConfig, fitness
from pace.projection import FastfoodProjector


def brute_force_eviction(vectors: list[np.ndarray]) -> int:
    """Independent O(n^2) oracle: argmax of mean pairwise cosine, oldest on ties."""
    n = len(vectors)
    best_idx, best_score = 0, -np.inf
    for i in range(n):
        total = 0.0
        for j in range(n):
            if i == j:
                continue
            ni, nj = np.linalg.norm(vectors[i]), np.linalg.norm(vectors[j])
            if ni == 0 or nj == 0:
                total += -1.0
            else:
                total += float(vectors[i] @ vectors[j] / (ni * nj))
        score = total / (n - 1)
        if score > best_score + 1e-15:
            best_score, best_idx = score, i
    return best_idx


class TestArchive:
    def test_append_to_empty(self):
        bank = VectorBank(3, capacity=5)
        bank.archive([1.0, 2.0, 3.0])
        assert bank.count == 1
        np.testing.assert_array_equal(bank.vectors[0], [1.0, 2.0, 3.0])

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(0)
        bank = VectorBank(4, capacity=3)
        for _ in range(20):
            bank.archive(rng.standard_normal(4))
            assert bank.count <= 3

    def test_zero_capacity_bank_stays_empty(self):
        bank = VectorBank(2, capacity=0)
        bank.archive([1.0, 2.0])
        assert bank.count == 0

    def test_near_duplicate_pair_eviction_matches_brute_force(self):
        # bank {a, b, a'} with cos(a, a') ~ 0.999, then archive unrelated c
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 0.0])
        a_prime = np.array([1.0, 0.045, 0.0, 0.0])
        a_prime /= np.linalg.norm(a_prime)
        assert a @ a_prime > 0.998
        c = np.array([0.0, 0.0, 0.0, 1.0])
        bank = VectorBank(4, capacity=3)
        for v in (a, b, a_prime):
            bank.archive(v)
        expected_drop = brute_force_eviction([a, b, a_prime, c])
        assert expected_drop in (0, 2)  # one of the near-duplicates
        bank.archive(c)
        survivors = [tuple(v) for v in bank.vectors]
        dropped = [tuple(v) for v in (a, b, a_prime, c)][expected_drop]
        assert dropped not in survivors
        assert bank.count == 3

    def test_orthogonal_bank_plus_duplicate_evicts_duplicate_member(self):
        # default capacity 30: orthogonal vectors plus a copy of vector 0
        bank = VectorBank(31, capacity=30)
        basis = np.eye(31)
        for i in range(30):
            bank.archive(basis[i])
        duplicate = basis[0].copy()
        oracle = brute_force_eviction([basis[i] for i in range(30)] + [duplicate])
        bank.archive(duplicate)
        assert bank.count == 30
        # oldest of the tied duplicate pair is removed
        assert oracle == 0
        matches = sum(np.array_equal(v, basis[0]) for v in bank.vectors)
        assert matches == 1

    def test_random_banks_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            vectors = [rng.standard_normal(6) for _ in range(n)]
            bank = VectorBank(6, capacity=n - 1)
            for v in vectors[:-1]:
                bank.vectors.append(v.copy())
            bank.archive(vectors[-1])
            expected = brute_force_eviction(vectors)
            survivors = [v.tobytes() for v in bank.vectors]
            assert vectors[expected].tobytes() not in survivors

    def test_zero_vector_stored_but_never_preferred_for_eviction(self):
        bank = VectorBank(3, capacity=3)
        bank.archive(np.zeros(3))
        near_a = np.array([1.0, 0.01, 0.0])
        near_b = np.array([1.0, -0.01, 0.0])
        bank.archive(near_a)
        bank.archive(near_b)
        bank.archive(np.array([0.0, 0.0, 1.0]))  # forces one eviction
        # the zero vector has mean similarity -1, so one of the similar pair goes
        assert any(np.array_equal(v, np.zeros(3)) for v in bank.vectors)
        assert bank.count == 3

    def test_tie_break_evicts_oldest(self):
        bank = VectorBank(2, capacity=2)
        v = np.array([1.0, 0.0])
        bank.archive(v)
        bank.archive(v.copy())
        bank.archive(v.copy())  # three identical: all tie, oldest dropped
        assert bank.count == 2

    def test_validates_vector(self):
        bank = VectorBank(3, capacity=2)
        with pytest.raises(ValueError):
            bank.archive([1.0, 2.0])
        with pytest.raises(ValueError):
            bank.archive([1.0, np.nan, 0.0])


class TestMeanPairwiseCosine:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        vectors = [rng.standard_normal(5) for _ in range(8)]
        vectors[2] = np.zeros(5)
        scores = mean_pairwise_cosine(vectors)
        assert int(np.argmax(scores)) == brute_force_eviction(vectors)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            mean_pairwise_cosine([np.ones(2)])


class TestRetrieveInit:
    def test_empty_bank_returns_zero(self, tiny_setup):
        _, model, stats = tiny_setup
        bank = VectorBank(8, capacity=4)
        proj = FastfoodProjector(8, model.offset_dim, seed=0)
        batch = np.random.default_rng(0).standard_normal((16, 2))
        result = bank.retrieve_init(batch, model, proj, stats, FitnessConfig(0.4))
        np.testing.assert_array_equal(result.vector, np.zeros(8))
        assert result.forward_passes == 1  # the fresh-start candidate

    def test_returns_fitness_argmin_with_zero_candidate(self, tiny_setup):
        _, model, stats = tiny_setup
        rng = np.random.default_rng(1)
        proj = FastfoodProjector(8, model.offset_dim, seed=0)
        cfg = FitnessConfig(0.4)
        bank = VectorBank(8, capacity=10)
        for _ in range(5):
            bank.archive(0.5 * rng.standard_normal(8))
        batch = rng.standard_normal((16, 2)) * 2.0
        result = bank.retrieve_init(batch, model, proj, stats, cfg)
        assert result.forward_passes == 6
        candidates = [np.zeros(8)] + list(bank.vectors)
        oracle = [
            fitness(*model.forward(proj.project(c), batch), stats, cfg) for c in candidates
        ]
        best = int(np.argmin(oracle))
        np.testing.assert_array_equal(result.vector, candidates[best])
        np.testing.assert_allclose(result.fitnesses, oracle, atol=1e-12)

    def test_degrading_vector_loses_to_fresh_start(self, tiny_setup):
        _, model, stats = tiny_setup
        proj = FastfoodProjector(8, model.offset_dim, seed=0)
        bank = VectorBank(8, capacity=2)
        bank.archive(np.full(8, 50.0))  # wildly distorting offset
        batch = np.random.default_rng(2).standard_normal((16, 2))
        result = bank.retrieve_init(batch, model, proj, stats, FitnessConfig(0.4))
        np.testing.assert_array_equal(result.vector, np.zeros(8))
        assert result.fitnesses[0] <= result.fitnesses[1]

    def test_all_non_finite_falls_back_to_zero_with_flag(self, tiny_setup, monkeypatch):
        # every candidate, the zero vector included, scores inf: the zero
        # vector still wins because it comes first
        _, model, stats = tiny_setup
        proj = FastfoodProjector(8, model.offset_dim, seed=0)
        bank = VectorBank(8, capacity=2)
        bank.archive(np.full(8, 0.1))
        monkeypatch.setattr(
            pace.bank, "fitness", lambda probs, *args: np.full(probs.shape[0], np.inf)
        )
        batch = np.random.default_rng(3).standard_normal((8, 2))
        result = bank.retrieve_init(batch, model, proj, stats, FitnessConfig(0.4))
        np.testing.assert_array_equal(result.vector, np.zeros(8))
        assert result.forward_passes == 2
        assert result.fitnesses == [np.inf, np.inf]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        bank = VectorBank(5, capacity=4)
        for _ in range(4):
            bank.archive(rng.standard_normal(5))
        path = tmp_path / "bank.json"
        bank.save(path)
        loaded = VectorBank.load(path)
        assert loaded.dim == 5 and loaded.capacity == 4
        assert loaded.count == bank.count
        for a, b in zip(bank.vectors, loaded.vectors):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_load_validates_lengths(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text(
            '{"schema_version": 1, "d": 3, "capacity": 2, "vectors": [[1.0, 2.0]]}'
        )
        with pytest.raises(ValueError, match="length 3"):
            VectorBank.load(path)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text('{"schema_version": 9, "d": 3, "capacity": 2, "vectors": []}')
        with pytest.raises(ValueError, match="schema"):
            VectorBank.load(path)
