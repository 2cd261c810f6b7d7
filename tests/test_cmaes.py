from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from pace import cmaes
from pace.cmaes import RankedCandidate


def run_minimizer(f, d, population, tau0, m0, max_evals, target, seed):
    state = cmaes.init(d, m0=m0, tau0=tau0, population_size=population)
    rng = np.random.default_rng(seed)
    best = np.inf
    evals = 0
    while evals < max_evals and best >= target:
        pop = cmaes.sample_population(state, rng)
        ranked = [RankedCandidate(v, float(f(v))) for v in pop]
        evals += population
        best = min(best, min(r.fitness for r in ranked))
        state, _ = cmaes.update(state, ranked)
    return best, evals


def sphere(v):
    return np.sum(v**2)


def rosenbrock(v):
    return np.sum(100.0 * (v[1:] - v[:-1] ** 2) ** 2 + (1 - v[:-1]) ** 2)


class TestInit:
    def test_specified_initialization(self):
        state = cmaes.init(3, m0=np.zeros(3), tau0=0.1, population_size=6)
        np.testing.assert_array_equal(state.mean, [0, 0, 0])
        np.testing.assert_array_equal(state.covariance, np.eye(3))
        np.testing.assert_array_equal(state.path_sigma, np.zeros(3))
        np.testing.assert_array_equal(state.path_c, np.zeros(3))
        assert state.iteration == 0
        assert state.step_size == 0.1

    def test_warm_start_mean_is_exact(self):
        archived = np.array([0.3, -1.2, 4.0, 0.0])
        state = cmaes.init(4, m0=archived, tau0=0.5, population_size=4)
        np.testing.assert_array_equal(state.mean, archived)

    def test_default_mean_is_origin(self):
        state = cmaes.init(5, tau0=0.01, population_size=4)
        np.testing.assert_array_equal(state.mean, np.zeros(5))

    def test_population_default_matches_deployment_preset(self):
        state = cmaes.init(2304, tau0=0.01, population_size=28)
        assert state.population_size == 28

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError, match="population_size"):
            cmaes.init(3, tau0=0.1, population_size=1)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            cmaes.init(3, tau0=0.0, population_size=4)

    @pytest.mark.parametrize("d", [1, 2, 8, 32, 256])
    def test_factors_are_those_eigh_gives_the_identity(self, d):
        eigvals, basis = np.linalg.eigh(np.eye(d))
        state = cmaes.init(d, tau0=0.1, population_size=12)
        np.testing.assert_array_equal(state.eig_sqrt, np.sqrt(eigvals))
        np.testing.assert_array_equal(state.eig_basis, basis)
        assert state.eig_iteration == 0

    def test_init_and_restart_run_no_eigendecomposition(self, monkeypatch):
        def refuse(_):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        state = cmaes.init(16, tau0=0.1, population_size=12)
        restarted = cmaes.reinitialized(state, np.ones(16), 0.2)
        np.testing.assert_array_equal(restarted.eig_basis, np.eye(16))

    def test_weights_non_increasing_and_normalized(self):
        state = cmaes.init(10, tau0=1.0, population_size=12)
        w = state.hyper.weights
        assert np.all(np.diff(w) <= 0)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)


class TestSamplePopulation:
    def test_degenerate_step_size_collapses_to_mean(self):
        m0 = np.array([1.0, -2.0, 0.5])
        state = cmaes.init(3, m0=m0, tau0=1e-300, population_size=8)
        pop = cmaes.sample_population(state, np.random.default_rng(0))
        assert pop.shape == (8, 3)
        np.testing.assert_allclose(pop, np.broadcast_to(m0, (8, 3)), atol=1e-12)

    def test_normality_sanity(self):
        state = cmaes.init(4, tau0=1.0, population_size=100)
        rng = np.random.default_rng(0)
        draws = np.concatenate([cmaes.sample_population(state, rng) for _ in range(1000)])
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 0.1)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)

    def test_reproducible_for_fixed_stream(self):
        state = cmaes.init(5, tau0=0.3, population_size=6)
        a = cmaes.sample_population(state, np.random.default_rng(7))
        b = cmaes.sample_population(state, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_repair_path_restores_sampling(self):
        state = cmaes.init(3, tau0=0.1, population_size=4)
        broken = state.covariance.copy()
        broken[0, 0] = -1.0  # not positive definite
        covariance, eig_sqrt, eig_basis = cmaes._repair_and_factorize(broken)
        repaired = dataclasses.replace(
            state, covariance=covariance, eig_sqrt=eig_sqrt, eig_basis=eig_basis
        )
        assert np.linalg.eigvalsh(repaired.covariance).min() > 0
        pop = cmaes.sample_population(repaired, np.random.default_rng(0))
        assert np.all(np.isfinite(pop))

    def test_repair_of_a_nan_covariance_gives_up(self):
        # no jitter makes a NaN covariance factorizable
        with pytest.raises(np.linalg.LinAlgError, match="repair failed"):
            cmaes._repair_and_factorize(np.full((3, 3), np.nan))


class TestUpdate:
    def _ranked(self, state, rng):
        pop = cmaes.sample_population(state, rng)
        return [RankedCandidate(v, float(sphere(v))) for v in pop]

    def test_rank_invariance_bitwise(self):
        state = cmaes.init(6, m0=np.ones(6), tau0=0.4, population_size=10)
        ranked = self._ranked(state, np.random.default_rng(3))
        base, base_rel = cmaes.update(state, ranked)
        for transform in (lambda f: 2 * f + 3, np.exp, lambda f: f**3 + f):
            mapped = [RankedCandidate(r.vector, float(transform(r.fitness))) for r in ranked]
            out, rel = cmaes.update(state, mapped)
            np.testing.assert_array_equal(out.mean, base.mean)
            np.testing.assert_array_equal(out.covariance, base.covariance)
            assert out.step_size == base.step_size
            assert rel == base_rel

    def test_mean_is_weighted_recombination(self):
        # direct formula oracle: hand-coded weighted sum over the best half
        state = cmaes.init(4, m0=np.zeros(4), tau0=0.5, population_size=8)
        rng = np.random.default_rng(1)
        ranked = self._ranked(state, rng)
        order = np.argsort([r.fitness for r in ranked], kind="stable")
        mu = state.hyper.mu
        expected = np.zeros(4)
        for w, idx in zip(state.hyper.weights, order[:mu]):
            expected += w * ranked[idx].vector
        new_state, _ = cmaes.update(state, ranked)
        np.testing.assert_allclose(new_state.mean, expected, atol=1e-12)

    def test_rel_mean_change_definition(self):
        state = cmaes.init(3, m0=np.array([1.0, 0.0, 0.0]), tau0=0.2, population_size=6)
        ranked = self._ranked(state, np.random.default_rng(0))
        new_state, rel = cmaes.update(state, ranked)
        expected = np.linalg.norm(new_state.mean - state.mean) / np.linalg.norm(state.mean)
        assert rel == pytest.approx(expected)
        assert rel >= 0 and np.isfinite(rel)

    def test_rel_mean_change_infinite_from_origin(self):
        state = cmaes.init(3, tau0=0.2, population_size=6)
        _, rel = cmaes.update(state, self._ranked(state, np.random.default_rng(0)))
        assert rel == np.inf

    def test_non_finite_fitness_ranked_worst(self):
        state = cmaes.init(4, m0=np.ones(4), tau0=0.3, population_size=6)
        ranked = self._ranked(state, np.random.default_rng(2))
        poisoned = [RankedCandidate(r.vector, np.nan if i == 0 else r.fitness)
                    for i, r in enumerate(ranked)]
        reference = [RankedCandidate(r.vector, np.inf if i == 0 else r.fitness)
                     for i, r in enumerate(ranked)]
        out_a, _ = cmaes.update(state, poisoned)
        out_b, _ = cmaes.update(state, reference)
        np.testing.assert_array_equal(out_a.mean, out_b.mean)

    def test_all_non_finite_rejected(self):
        state = cmaes.init(3, tau0=0.2, population_size=4)
        ranked = [RankedCandidate(np.zeros(3), np.nan) for _ in range(4)]
        with pytest.raises(ValueError, match="non-finite"):
            cmaes.update(state, ranked)

    def test_wrong_population_size_rejected(self):
        state = cmaes.init(3, tau0=0.2, population_size=4)
        with pytest.raises(ValueError, match="ranked candidates"):
            cmaes.update(state, [RankedCandidate(np.zeros(3), 1.0)])

    def test_covariance_stays_symmetric_positive(self):
        state = cmaes.init(8, m0=np.ones(8), tau0=0.5, population_size=10)
        rng = np.random.default_rng(5)
        for _ in range(50):
            state, _ = cmaes.update(state, self._ranked(state, rng))
            asym = np.max(np.abs(state.covariance - state.covariance.T))
            assert asym < 1e-12
            assert np.linalg.eigvalsh(state.covariance).min() > 0

    def test_iteration_counter_advances(self):
        state = cmaes.init(3, tau0=0.2, population_size=4)
        new_state, _ = cmaes.update(state, self._ranked(state, np.random.default_rng(0)))
        assert new_state.iteration == 1


class TestConvergence:
    def test_sphere_quick(self):
        best, evals = run_minimizer(
            sphere, 5, population=8, tau0=0.5, m0=np.ones(5), max_evals=2000,
            target=1e-9, seed=0,
        )
        assert best < 1e-9

    def test_rosenbrock_quick(self):
        best, _ = run_minimizer(
            rosenbrock, 4, population=10, tau0=0.3, m0=np.zeros(4), max_evals=12000,
            target=1e-6, seed=1,
        )
        assert best < 1e-6


def _generations(state, count, seed, fitness=sphere):
    """``count`` updates from ``state``; returns every state, ``state`` first."""
    rng = np.random.default_rng(seed)
    states = [state]
    for _ in range(count):
        pop = cmaes.sample_population(states[-1], rng)
        ranked = [RankedCandidate(v, float(fitness(v))) for v in pop]
        states.append(cmaes.update(states[-1], ranked)[0])
    return states


class TestEigenSchedule:
    # every (d, K) the tests above use, plus the toy presets' d=32, K=12
    @pytest.mark.parametrize(
        "d,population",
        [(3, 4), (3, 6), (4, 4), (4, 6), (4, 8), (5, 8), (6, 10), (8, 10), (32, 12)],
    )
    def test_small_d_refactorizes_every_generation(self, d, population):
        start = cmaes.init(d, m0=np.ones(d), tau0=0.3, population_size=population)
        assert start.hyper.eig_interval < 1
        for state in _generations(start, 12, seed=d)[1:]:
            _, eig_sqrt, eig_basis = cmaes._repair_and_factorize(state.covariance)
            assert state.eig_iteration == state.iteration
            np.testing.assert_array_equal(state.eig_sqrt, eig_sqrt)
            np.testing.assert_array_equal(state.eig_basis, eig_basis)

    def test_d256_refreshes_every_fifth_generation(self):
        start = cmaes.init(256, m0=np.ones(256), tau0=0.3, population_size=12)
        assert 4 < start.hyper.eig_interval < 5
        states = _generations(start, 16, seed=0)
        refreshed = [s.iteration for s in states[1:] if s.eig_iteration == s.iteration]
        assert refreshed == [5, 10, 15]
        for state in states:
            last = states[state.eig_iteration]
            assert state.eig_sqrt is last.eig_sqrt
            assert state.eig_basis is last.eig_basis

    def test_sampling_and_whitening_use_stale_factors(self):
        states = _generations(cmaes.init(256, m0=np.ones(256), tau0=0.3), 3, seed=1)
        state = states[-1]
        assert state.eig_iteration == 0
        assert not np.array_equal(state.covariance, np.eye(256))
        z = np.random.default_rng(9).standard_normal((state.population_size, 256))
        stale = state.mean + state.step_size * (z * state.eig_sqrt) @ state.eig_basis.T
        pop = cmaes.sample_population(state, np.random.default_rng(9))
        np.testing.assert_array_equal(pop, stale)
        _, eig_sqrt, eig_basis = cmaes._repair_and_factorize(state.covariance)
        fresh = state.mean + state.step_size * (z * eig_sqrt) @ eig_basis.T
        assert not np.allclose(pop, fresh)

        ranked = [RankedCandidate(v, float(sphere(v))) for v in pop]
        new_state, _ = cmaes.update(state, ranked)
        hp = state.hyper
        y_w = (new_state.mean - state.mean) / state.step_size
        whitened = state.eig_basis @ ((state.eig_basis.T @ y_w) / state.eig_sqrt)
        expected = (1 - hp.c_sigma) * state.path_sigma + np.sqrt(
            hp.c_sigma * (2 - hp.c_sigma) * hp.mu_eff
        ) * whitened
        np.testing.assert_allclose(new_state.path_sigma, expected, rtol=1e-12, atol=1e-14)

    def test_refresh_adds_no_covariance_sized_array(self):
        # tracemalloc sees numpy's array buffers, not LAPACK's workspace
        d = 512
        states = _generations(cmaes.init(d, m0=np.ones(d), tau0=0.3), 9, seed=2)
        rng = np.random.default_rng(4)
        peaks = {}
        for state in states[7:]:
            before = state.covariance.copy()
            ranked = [RankedCandidate(v, float(sphere(v)))
                      for v in cmaes.sample_population(state, rng)]
            tracemalloc.start()
            try:
                live = tracemalloc.get_traced_memory()[0]
                new_state, _ = cmaes.update(state, ranked)
                peak = tracemalloc.get_traced_memory()[1] - live
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(state.covariance, before)
            peaks[new_state.eig_iteration == new_state.iteration] = peak
        assert set(peaks) == {False, True}
        assert peaks[True] - peaks[False] < 0.5 * d * d * 8


def test_long_noisy_stream_stays_healthy():
    """600 generations at d=64 (a refresh every 2nd) on a noisy sphere, no stop rule."""
    noise = np.random.default_rng(2)
    state = cmaes.init(64, m0=np.ones(64), tau0=0.5, population_size=12)
    assert 1 < state.hyper.eig_interval < 2
    sample_rng = np.random.default_rng(3)
    refreshes = 0
    for _ in range(600):
        pop = cmaes.sample_population(state, sample_rng)
        assert np.all(np.isfinite(pop))
        ranked = [RankedCandidate(v, float(sphere(v) + 0.1 * noise.standard_normal()))
                  for v in pop]
        state, _ = cmaes.update(state, ranked)
        assert np.isfinite(state.step_size) and state.step_size > 0
        if state.eig_iteration == state.iteration:
            refreshes += 1
            np.linalg.cholesky(state.covariance)  # raises unless positive definite
    assert refreshes == 300
