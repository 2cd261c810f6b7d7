"""Covariance Matrix Adaptation Evolution Strategy over the search subspace.

The canonical variant: weighted recombination of the best half of the
population for the mean, cumulative step-size adaptation for the global step
size, and a rank-one plus rank-mu covariance update.  Updates depend on the
candidates only through their fitness ranking, so any strictly monotone
transform of the fitness values leaves the next state bit-identical.

States are immutable from the caller's point of view: ``update`` returns a new
state and reports the relative mean shift used by the adaptation-stopping
rule.  No covariance is stored or factorized.  The state holds a square root
``A`` of it, ``C = A A^T``, and ``A^-1`` (Igel, Suttorp & Hansen, GECCO 2006;
Krause, Arbones & Igel, NeurIPS 2016).  Candidates are ``mean + sigma z A^T``;
``A^-1 y_w`` whitens the mean step, a rotation of ``C^-1/2 y_w`` that Hansen's
tutorial (arXiv:1604.00772) allows.  The covariance blend is ``A M A^T`` with
``M = alpha I + W diag(beta) W^T``, ``W = A^-1 [p_c, y_1 .. y_mu]`` and
``beta = [c_1, c_mu w_i]``, so one step sets ``A' = A M^1/2`` and
``A'^-1 = M^-1/2 A^-1``, from a thin QR of ``W`` and a (mu+1) x (mu+1)
``eigh``: O(d^2 mu) per generation and no d x d factorization.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .validation import check_array, check_int, check_real


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
        return cls(mu, weights, mu_eff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n)


@dataclass(frozen=True)
class CmaesState:
    """Search-distribution state: mean, step size, covariance factors, evolution paths."""

    mean: np.ndarray
    step_size: float
    factor: np.ndarray = field(repr=False)  # A, with covariance A A^T
    factor_inv: np.ndarray = field(repr=False)  # A^-1
    path_sigma: np.ndarray
    path_c: np.ndarray
    iteration: int
    population_size: int
    hyper: Hyperparameters = field(repr=False)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def covariance(self) -> np.ndarray:
        """The covariance ``A A^T``, formed afresh on every read."""
        return self.factor @ self.factor.T

    @property
    def eig_sqrt(self) -> np.ndarray:
        """Singular values of ``A`` (root eigenvalues of the covariance), for traced benchmarks."""
        return np.linalg.svd(self.factor, compute_uv=False)


def init(d: int, m0=None, tau0: float = 0.01, population_size: int = 12) -> CmaesState:
    """Fresh state: identity covariance, zero paths, iteration 0.

    ``m0`` defaults to the zero vector; passing an archived mean warm-starts
    the search exactly there.
    """
    d = check_int(d, "d")
    tau0 = check_real(tau0, "tau0", 0, np.inf, "()")
    population_size = check_int(population_size, "population_size", minimum=2)
    mean = np.zeros(d) if m0 is None else check_array(m0, "m0", ndim=1, length=d).copy()
    identity = np.eye(d)  # A and A^-1 of the identity; no update writes a factor
    return CmaesState(
        mean=mean,
        step_size=tau0,
        factor=identity,
        factor_inv=identity,
        path_sigma=np.zeros(d),
        path_c=np.zeros(d),
        iteration=0,
        population_size=population_size,
        hyper=Hyperparameters.defaults(d, population_size),
    )


def sample_population(state: CmaesState, rng: np.random.Generator) -> np.ndarray:
    """Draw ``population_size`` candidates, one per row.

    Each candidate is ``mean + step_size * A z`` with ``z ~ N(0, I)``, so
    candidates follow ``N(mean, step_size^2 * covariance)``.  Reproducible for
    a given generator state.
    """
    z = rng.standard_normal((state.population_size, state.dim))
    return state.mean + state.step_size * z @ state.factor.T


def update(state: CmaesState, ranked: list[RankedCandidate]) -> tuple[CmaesState, float]:
    """One generation: recombine, adapt paths, step size and covariance factors.

    Candidates with non-finite fitness are demoted to worst rank; if no
    candidate has finite fitness the update is rejected with a ``ValueError``.
    Returns the new state and the relative mean shift ``|m_new - m_old| /
    |m_old|`` (``inf`` when the old mean is the origin).  A non-finite ``M``
    rejects the update: ``state`` itself comes back, with a nan mean shift.
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

    c_s, c_c = hp.c_sigma, hp.c_c
    t_new = state.iteration + 1
    # overflowing candidates surface below as a non-finite M, which rejects
    with np.errstate(over="ignore", invalid="ignore"):
        # rows [p_c_old, y_1 .. y_mu], whitened by A^-1 in one product; the
        # whitened mean step and the new p_c are linear in these rows
        whitened_rows = np.vstack([state.path_c, (selected - m_old) / tau]) @ state.factor_inv.T
        y_w = (m_new - m_old) / tau
        whitened = hp.weights @ whitened_rows[1:]  # A^-1 y_w
        path_sigma = (1 - c_s) * state.path_sigma
        path_sigma += np.sqrt(c_s * (2 - c_s) * hp.mu_eff) * whitened

        ps_norm = np.linalg.norm(path_sigma)
        h_sigma = float(
            ps_norm / np.sqrt(1 - (1 - c_s) ** (2 * t_new)) / hp.chi_n < 1.4 + 2 / (d + 1)
        )
        path_coef = h_sigma * np.sqrt(c_c * (2 - c_c) * hp.mu_eff)
        path_c = (1 - c_c) * state.path_c + path_coef * y_w
        whitened_rows[0] *= 1 - c_c  # row 0 becomes W's first column, A^-1 p_c
        whitened_rows[0] += path_coef * whitened

        c1_adj = hp.c_1 * (1 - (1 - h_sigma) * c_c * (2 - c_c))
        alpha = 1 - c1_adj - hp.c_mu
        beta = np.concatenate(([hp.c_1], hp.c_mu * hp.weights))
        # W diag(beta) W^T = Q (R diag(beta) R^T) Q^T = U diag(lam) U^T, U = Q V
        q, r = np.linalg.qr(whitened_rows.T)
        low_rank = (r * beta) @ r.T
    if not np.isfinite(low_rank).all():
        return state, np.nan
    lam, v = np.linalg.eigh(low_rank)
    u = q @ v
    # A' and A'^-1 share one new buffer: one fresh d x d allocation per update
    factor, factor_inv = np.empty((2, d, d))
    if u.shape[1] == d:
        # W spans the space: M = U diag(alpha + lam) U^T, even at alpha = 0
        root = np.sqrt(alpha + lam)
        if not root.min() > 0:
            return state, np.nan
        np.matmul(state.factor @ u * root, u.T, out=factor)
        np.matmul(u / root, u.T @ state.factor_inv, out=factor_inv)
    else:
        # M^(+-1/2) = alpha^(+-1/2) (I + U diag(g or h) U^T), with
        # 1 + g = sqrt(1 + lam / alpha) and 1 + h = 1 / (1 + g), written to
        # keep small lam exact; the alpha^(+-1/2) scales each product in place
        ratio = lam / alpha
        grow = np.sqrt(1 + ratio)
        np.matmul(state.factor @ u * (ratio / (grow + 1)), u.T, out=factor)
        factor += state.factor
        factor *= np.sqrt(alpha)
        np.matmul(u * (-ratio / (grow * (grow + 1))), u.T @ state.factor_inv, out=factor_inv)
        factor_inv += state.factor_inv
        factor_inv *= 1 / np.sqrt(alpha)

    step_size = tau * np.exp(min(1.0, (c_s / hp.d_sigma) * (ps_norm / hp.chi_n - 1)))

    old_norm = np.linalg.norm(m_old)
    rel_mean_change = float(np.linalg.norm(m_new - m_old) / old_norm) if old_norm > 0 else np.inf

    new_state = CmaesState(
        mean=m_new,
        step_size=float(step_size),
        factor=factor,
        factor_inv=factor_inv,
        path_sigma=path_sigma,
        path_c=path_c,
        iteration=t_new,
        population_size=state.population_size,
        hyper=hp,
    )
    return new_state, rel_mean_change


def reinitialized(state: CmaesState, m0, tau0: float) -> CmaesState:
    """Fresh search distribution warm-started at ``m0`` (identity covariance)."""
    return init(state.dim, m0=m0, tau0=tau0, population_size=state.population_size)
