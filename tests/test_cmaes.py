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
    def test_factors_of_the_identity(self, d):
        state = cmaes.init(d, tau0=0.1, population_size=12)
        np.testing.assert_array_equal(state.factor, np.eye(d))
        np.testing.assert_array_equal(state.factor_inv, np.eye(d))
        np.testing.assert_array_equal(state.covariance, np.eye(d))
        np.testing.assert_array_equal(state.eig_sqrt, np.ones(d))

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

    def test_candidates_are_mean_plus_step_size_times_the_factor(self):
        state = _generations(cmaes.init(16, m0=np.ones(16), tau0=0.3), 5, seed=1)[-1]
        assert not np.array_equal(state.factor, np.eye(16))
        z = np.random.default_rng(9).standard_normal((state.population_size, 16))
        pop = cmaes.sample_population(state, np.random.default_rng(9))
        np.testing.assert_array_equal(pop, state.mean + state.step_size * z @ state.factor.T)


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


def _blend(state, ranked, new_state):
    """The canonical covariance update, coded directly on the covariance.

    ``(1 - c1_adj - c_mu) C + c_1 p_c p_c^T + c_mu sum_i w_i y_i y_i^T`` with
    ``new_state``'s ``p_c`` and the ``h_sigma`` its ``p_sigma`` gives.
    """
    hp, d = state.hyper, state.dim
    order = np.argsort([r.fitness for r in ranked], kind="stable")
    y = (np.stack([ranked[i].vector for i in order[: hp.mu]]) - state.mean) / state.step_size
    c_s, c_c = hp.c_sigma, hp.c_c
    h_sigma = float(
        np.linalg.norm(new_state.path_sigma)
        / np.sqrt(1 - (1 - c_s) ** (2 * new_state.iteration)) / hp.chi_n
        < 1.4 + 2 / (d + 1)
    )
    c1_adj = hp.c_1 * (1 - (1 - h_sigma) * c_c * (2 - c_c))
    return (
        (1 - c1_adj - hp.c_mu) * state.covariance
        + hp.c_1 * np.outer(new_state.path_c, new_state.path_c)
        + hp.c_mu * (y.T * hp.weights) @ y
    )


def _blend_error(state, ranked, new_state):
    expected = _blend(state, ranked, new_state)
    return np.abs(new_state.covariance - expected).max() / np.abs(expected).max()


def _inverse_error(state):
    return np.abs(state.factor @ state.factor_inv - np.eye(state.dim)).max()


class TestFactorUpdate:
    @pytest.mark.parametrize("d,start", [(16, 0), (16, 20), (3, 10), (64, 10)])
    def test_one_update_is_the_canonical_blend(self, d, start):
        state = _generations(cmaes.init(d, m0=np.ones(d), tau0=0.3), start, seed=d)[-1]
        pop = cmaes.sample_population(state, np.random.default_rng(5))
        ranked = [RankedCandidate(v, float(sphere(v))) for v in pop]
        new_state, _ = cmaes.update(state, ranked)
        assert _blend_error(state, ranked, new_state) < 1e-14
        assert _inverse_error(new_state) < 1e-13

    def test_paths_whiten_with_the_inverse_factor(self):
        state = _generations(cmaes.init(32, m0=np.ones(32), tau0=0.3), 10, seed=1)[-1]
        pop = cmaes.sample_population(state, np.random.default_rng(2))
        new_state, _ = cmaes.update(state, [RankedCandidate(v, float(sphere(v))) for v in pop])
        hp = state.hyper
        y_w = (new_state.mean - state.mean) / state.step_size
        coef = np.sqrt(hp.c_sigma * (2 - hp.c_sigma) * hp.mu_eff)
        expected = (1 - hp.c_sigma) * state.path_sigma + coef * (state.factor_inv @ y_w)
        np.testing.assert_allclose(new_state.path_sigma, expected, rtol=1e-12, atol=1e-14)

    def test_full_forgetting_configuration_still_adapts(self):
        # c_1 + c_mu = 1 at d=2, population 80: alpha is 0 whenever h_sigma is
        # 1, so M is W diag(beta) W^T alone
        state = cmaes.init(2, m0=np.ones(2), tau0=0.3, population_size=80)
        assert 1 - state.hyper.c_1 - state.hyper.c_mu == 0
        states = _generations(state, 60, seed=4)
        assert all(s.iteration == i for i, s in enumerate(states))
        assert sphere(states[-1].mean) < 1e-12
        assert _inverse_error(states[-1]) < 1e-10

    def test_eig_sqrt_is_the_root_of_the_covariance_spectrum(self):
        state = _generations(cmaes.init(24, m0=np.ones(24), tau0=0.3), 40, seed=6)[-1]
        expected = np.sqrt(np.linalg.eigvalsh(state.covariance))
        np.testing.assert_allclose(np.sort(state.eig_sqrt), expected, rtol=1e-12)
        assert expected.max() / expected.min() > 1.1

    def test_non_finite_step_rejects_and_keeps_the_state(self):
        d = 8
        state = _generations(cmaes.init(d, m0=np.ones(d), tau0=0.3), 5, seed=0)[-1]
        before = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
        before = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in before.items()}
        far = 1e200 * np.random.default_rng(1).standard_normal((state.population_size, d))
        ranked = [RankedCandidate(v, float(i)) for i, v in enumerate(far)]
        new_state, rel = cmaes.update(state, ranked)
        assert new_state is state
        assert np.isnan(rel)
        for name, value in before.items():
            if isinstance(value, np.ndarray):
                assert getattr(state, name).tobytes() == value.tobytes()
            else:
                assert getattr(state, name) is value

    @pytest.mark.parametrize("d", [3, 32, 256])
    def test_no_eigendecomposition_larger_than_mu_plus_one(self, d, monkeypatch):
        sizes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        state = cmaes.init(d, m0=np.ones(d), tau0=0.3, population_size=12)
        state = _generations(state, 4, seed=3)[-1]
        state = _generations(cmaes.reinitialized(state, np.ones(d), 0.2), 2, seed=4)[-1]
        assert len(sizes) == 6
        assert max(sizes) <= state.hyper.mu + 1

    def test_update_allocates_one_pair_of_factors(self):
        # tracemalloc sees numpy's array buffers, not LAPACK's workspace; the
        # new A and A^-1 are two d x d arrays, and nothing else may come near
        # another one
        d = 512
        state = _generations(cmaes.init(d, m0=np.ones(d), tau0=0.3), 3, seed=2)[-1]
        factor, factor_inv = state.factor.copy(), state.factor_inv.copy()
        ranked = [RankedCandidate(v, float(sphere(v)))
                  for v in cmaes.sample_population(state, np.random.default_rng(4))]
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            new_state, _ = cmaes.update(state, ranked)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(state.factor, factor)
        np.testing.assert_array_equal(state.factor_inv, factor_inv)
        assert new_state.iteration == state.iteration + 1
        assert peak < 2.25 * d * d * 8


@pytest.mark.parametrize("d,generations", [(64, 600), (16, 3000)])
def test_long_noisy_stream_stays_healthy(d, generations):
    """A noisy sphere, no stop rule: A A^-1 stays near I and every update near the blend."""
    noise = np.random.default_rng(2)
    state = cmaes.init(d, m0=np.ones(d), tau0=0.5, population_size=12)
    sample_rng = np.random.default_rng(3)
    for _ in range(generations):
        pop = cmaes.sample_population(state, sample_rng)
        assert np.all(np.isfinite(pop))
        ranked = [RankedCandidate(v, float(sphere(v) + 0.1 * noise.standard_normal()))
                  for v in pop]
        new_state, _ = cmaes.update(state, ranked)
        assert new_state.iteration == state.iteration + 1
        assert np.isfinite(new_state.step_size) and new_state.step_size > 0
        # measured at most 3.0e-14 and 2.8e-13 on these streams
        assert _blend_error(state, ranked, new_state) < 1e-12
        assert _inverse_error(new_state) < 1e-11
        state = new_state
    np.linalg.cholesky(state.covariance)  # raises unless positive definite
