"""Covariance Matrix Adaptation Evolution Strategy over the search subspace.

The canonical variant: weighted recombination of the best half of the
population for the mean, cumulative step-size adaptation for the global step
size, and a rank-one plus rank-mu covariance update.  Updates depend on the
candidates only through their fitness ranking, so any strictly monotone
transform of the fitness values leaves the next state bit-identical.

States are immutable from the caller's point of view: ``update`` returns a new
state and reports the relative mean shift used by the adaptation-stopping
rule.  The covariance is eigendecomposed lazily, on the schedule of Hansen,
"The CMA Evolution Strategy: A Tutorial" (arXiv:1604.00772): only once more
than ``1 / (10 d (c_1 + c_mu))`` generations have passed since the last
factorization.  Between refreshes, sampling and the whitening of the mean step
use the factors of the last refresh.  That interval is below one generation
for d up to 32 at population 12, so small subspaces refactorize on every
update; at d=256 it is every 5th.  A refresh symmetrizes the covariance in
place and repairs it with additive jitter if the factorization degenerates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .validation import check_array, check_positive, check_positive_int


@dataclass(frozen=True)
class RankedCandidate:
    """A sampled search vector together with its measured fitness."""

    vector: np.ndarray
    fitness: float


@dataclass(frozen=True)
class Hyperparameters:
    """Static strategy parameters derived from (dimension, population size)."""

    mu: int
    weights: np.ndarray  # length mu, non-increasing, sums to 1
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float
    eig_interval: float  # generations a factorization may age before a refresh

    @classmethod
    def defaults(cls, d: int, population_size: int) -> "Hyperparameters":
        mu = population_size // 2
        raw = np.log((population_size + 1) / 2.0) - np.log(np.arange(1, mu + 1))
        weights = raw / raw.sum()
        mu_eff = 1.0 / np.sum(weights**2)
        c_sigma = (mu_eff + 2) / (d + mu_eff + 5)
        d_sigma = 1 + 2 * max(0.0, np.sqrt((mu_eff - 1) / (d + 1)) - 1) + c_sigma
        c_c = (4 + mu_eff / d) / (d + 4 + 2 * mu_eff / d)
        c_1 = 2 / ((d + 1.3) ** 2 + mu_eff)
        c_mu = min(1 - c_1, 2 * (mu_eff - 2 + 1 / mu_eff) / ((d + 2) ** 2 + mu_eff))
        chi_n = np.sqrt(d) * (1 - 1 / (4 * d) + 1 / (21 * d**2))
        eig_interval = 1 / (10 * d * (c_1 + c_mu))
        return cls(mu, weights, mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n, eig_interval)


@dataclass(frozen=True)
class CmaesState:
    """Search-distribution state: mean, step size, covariance, evolution paths."""

    mean: np.ndarray
    step_size: float
    covariance: np.ndarray
    path_sigma: np.ndarray
    path_c: np.ndarray
    iteration: int
    population_size: int
    hyper: Hyperparameters = field(repr=False)
    # eigenfactorization of the covariance as it was at iteration `eig_iteration`,
    # used for sampling and for whitening in the next update
    eig_sqrt: np.ndarray = field(repr=False)
    eig_basis: np.ndarray = field(repr=False)
    eig_iteration: int

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _repair_and_factorize(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecompose the symmetric ``cov``, adding doubling jitter until positive definite.

    Returns (possibly repaired covariance, sqrt eigenvalues, eigenbasis);
    ``cov`` itself is never written.
    """
    d = cov.shape[0]
    jitter = 1e-10 * np.trace(cov) / d
    if not np.isfinite(jitter) or jitter <= 0:
        jitter = 1e-10
    for _ in range(64):
        try:
            eigvals, basis = np.linalg.eigh(cov)
        except np.linalg.LinAlgError:
            eigvals = np.array([-1.0])
        if np.all(np.isfinite(eigvals)) and eigvals.min() > 0:
            return cov, np.sqrt(eigvals), basis
        cov = cov + jitter * np.eye(d)
        jitter *= 2
    raise np.linalg.LinAlgError("covariance repair failed to restore positive definiteness")


def init(d: int, m0=None, tau0: float = 0.01, population_size: int = 12) -> CmaesState:
    """Fresh state: identity covariance, zero paths, iteration 0.

    ``m0`` defaults to the zero vector; passing an archived mean warm-starts
    the search exactly there.
    """
    d = check_positive_int(d, "d")
    check_positive(tau0, "tau0")
    if population_size < 2:
        raise ValueError(f"population_size must be >= 2, got {population_size}")
    mean = np.zeros(d) if m0 is None else check_array(m0, "m0", ndim=1, length=d).copy()
    return CmaesState(
        mean=mean,
        step_size=float(tau0),
        covariance=np.eye(d),
        path_sigma=np.zeros(d),
        path_c=np.zeros(d),
        iteration=0,
        population_size=int(population_size),
        hyper=Hyperparameters.defaults(d, population_size),
        # the identity's factors, exactly what eigh returns for it
        eig_sqrt=np.ones(d),
        eig_basis=np.eye(d),
        eig_iteration=0,
    )


def sample_population(state: CmaesState, rng: np.random.Generator) -> np.ndarray:
    """Draw ``population_size`` candidates, one per row.

    Each candidate is ``mean + step_size * B (sqrt(eigvals) * z)`` with
    ``z ~ N(0, I)``, so candidates follow ``N(mean, step_size^2 * covariance)``.
    Reproducible for a given generator state.
    """
    z = rng.standard_normal((state.population_size, state.dim))
    return state.mean + state.step_size * (z * state.eig_sqrt) @ state.eig_basis.T


def update(state: CmaesState, ranked: list[RankedCandidate]) -> tuple[CmaesState, float]:
    """One generation: recombine, adapt paths, step size and covariance.

    Candidates with non-finite fitness are demoted to worst rank; if no
    candidate has finite fitness the update is rejected.  Returns the new
    state and the relative mean shift ``|m_new - m_old| / |m_old|``
    (``inf`` when the old mean is the origin).
    """
    if len(ranked) != state.population_size:
        raise ValueError(
            f"expected {state.population_size} ranked candidates, got {len(ranked)}"
        )
    fitness = np.array([c.fitness for c in ranked], dtype=np.float64)
    finite = np.isfinite(fitness)
    if not finite.any():
        raise ValueError("all candidate fitness values are non-finite; update rejected")
    fitness = np.where(finite, fitness, np.inf)
    order = np.argsort(fitness, kind="stable")

    hp = state.hyper
    d = state.dim
    tau = state.step_size
    m_old = state.mean

    selected = np.stack([check_array(ranked[i].vector, "candidate", ndim=1, length=d)
                         for i in order[: hp.mu]])
    m_new = hp.weights @ selected

    y_w = (m_new - m_old) / tau
    # C^(-1/2) y_w  via the cached eigenfactorization
    whitened = state.eig_basis @ ((state.eig_basis.T @ y_w) / state.eig_sqrt)
    c_s = hp.c_sigma
    path_sigma = (1 - c_s) * state.path_sigma + np.sqrt(c_s * (2 - c_s) * hp.mu_eff) * whitened

    t_new = state.iteration + 1
    ps_norm = np.linalg.norm(path_sigma)
    h_sigma = float(
        ps_norm / np.sqrt(1 - (1 - c_s) ** (2 * t_new)) / hp.chi_n < 1.4 + 2 / (d + 1)
    )
    c_c = hp.c_c
    path_c = (1 - c_c) * state.path_c + h_sigma * np.sqrt(c_c * (2 - c_c) * hp.mu_eff) * y_w

    deltas = (selected - m_old) / tau
    c1_adj = hp.c_1 * (1 - (1 - h_sigma) * c_c * (2 - c_c))
    # (1 - c1_adj - c_mu) C + c_1 p_c p_c^T + (c_mu (deltas^T * w)) deltas, summed
    # left to right (that order fixes the rounding) into one new array through
    # one scratch array, which is freed before a refresh's eigh
    covariance = (1 - c1_adj - hp.c_mu) * state.covariance
    scratch = np.outer(path_c, path_c)
    scratch *= hp.c_1
    covariance += scratch
    np.matmul(hp.c_mu * (deltas.T * hp.weights), deltas, out=scratch)
    covariance += scratch
    del scratch

    step_size = tau * np.exp(min(1.0, (c_s / hp.d_sigma) * (ps_norm / hp.chi_n - 1)))

    old_norm = np.linalg.norm(m_old)
    rel_mean_change = float(np.linalg.norm(m_new - m_old) / old_norm) if old_norm > 0 else np.inf

    # between refreshes the new state keeps the factors it was sampled with
    eig_sqrt, eig_basis, eig_iteration = state.eig_sqrt, state.eig_basis, state.eig_iteration
    if t_new - eig_iteration > hp.eig_interval:
        # symmetrize the fresh blend in place; numpy buffers the overlapping
        # transpose, so each entry is (C_ij + C_ji) / 2 of the blended values
        np.add(covariance, covariance.T, out=covariance)
        covariance /= 2.0
        covariance, eig_sqrt, eig_basis = _repair_and_factorize(covariance)
        eig_iteration = t_new
    new_state = CmaesState(
        mean=m_new,
        step_size=float(step_size),
        covariance=covariance,
        path_sigma=path_sigma,
        path_c=path_c,
        iteration=t_new,
        population_size=state.population_size,
        hyper=hp,
        eig_sqrt=eig_sqrt,
        eig_basis=eig_basis,
        eig_iteration=eig_iteration,
    )
    return new_state, rel_mean_change


def reinitialized(state: CmaesState, m0, tau0: float) -> CmaesState:
    """Fresh search distribution warm-started at ``m0`` (identity covariance)."""
    return init(state.dim, m0=m0, tau0=tau0, population_size=state.population_size)
