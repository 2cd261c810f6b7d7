"""Per-batch adaptation state machine.

While ADAPTING, each test batch is served by the best of ``population_size``
candidate offsets sampled around the current search mean, all projected,
evaluated and scored in one population pass; the distribution is then updated
from the candidates' fitness ranking.  Adaptation freezes once
the relative change of the mean falls below ``epsilon``; a FROZEN batch costs
a single forward pass with the stored offset.  A frozen exponential moving
average of stem-layer statistics is compared against each incoming batch via
a symmetric KL score; when the score exceeds ``gamma`` the current mean is
archived to the vector bank, a warm start is retrieved by fitness, and
adaptation resumes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cmaes
from .bank import VectorBank
from .fitness import FitnessConfig, fitness
from .model import AdaptableModel, SourceStats
from .projection import FastfoodProjector
from .validation import check_array, check_batch, check_int, check_positive

ADAPTING = "adapting"
FROZEN = "frozen"
VARIANCE_FLOOR = 1e-8  # shift_score's lower bound on a feature variance
GAMMA_PERCENTILE = 99.5  # calibrate_gamma's percentile of the stationary scores
GAMMA_HEADROOM = 2.5  # and the factor it is multiplied by


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the adaptation loop.

    The defaults are a library starting point, not the benchmark's settings:
    ``pace run`` and the benchmark build their config from ``RunConfig``
    (``tau0=0.05``, ``epsilon=0.1``) with
    ``pace.bench.run.controller_config_for_method``.  ``epsilon = 0`` never
    stops adapting.  The detector still scores every adapting batch (the
    report's ``shift_score``) and blends its statistics into the EMA, but a
    shift is acted on, and the bank used, only with ``shift_while_adapting``.
    """

    dim: int = 32
    population_size: int = 12
    tau0: float = 0.01
    epsilon: float = 0.045
    gamma: float = 0.03
    beta: float = 0.8
    lambda_weight: float = 0.4
    bank_capacity: int = 30
    shift_while_adapting: bool = False
    seed: int = 0

    def __post_init__(self):
        check_int(self.dim, "dim")
        check_int(self.population_size, "population_size", minimum=2)
        check_int(self.bank_capacity, "bank_capacity", minimum=0)
        check_positive(self.tau0, "tau0")
        FitnessConfig(self.lambda_weight)
        if not self.epsilon >= 0:  # also rejects NaN
            raise ValueError("epsilon must be >= 0")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if not self.gamma > 0:  # also rejects NaN; inf never detects a shift
            raise ValueError("gamma must be positive")


@dataclass
class EmaStats:
    """Per-feature mean/variance pair tracked by the detector."""

    mean: np.ndarray
    var: np.ndarray


def update_ema(ema: EmaStats | None, batch_stats: EmaStats, beta: float) -> EmaStats:
    """Convex blend weighting the latest batch by ``beta``; first call initializes."""
    if ema is None:
        return EmaStats(batch_stats.mean.copy(), batch_stats.var.copy())
    return EmaStats(
        beta * batch_stats.mean + (1 - beta) * ema.mean,
        beta * batch_stats.var + (1 - beta) * ema.var,
    )


def shift_score(a: EmaStats, b: EmaStats) -> float:
    """Symmetric KL divergence between per-feature Gaussians, averaged over features.

    Each feature is treated as a univariate Gaussian given its (mean,
    variance) pair; variances are floored at ``VARIANCE_FLOOR`` to keep
    degenerate batches from producing infinities.  Identical statistics score
    exactly 0.
    """
    mean_a = check_array(a.mean, "mean", ndim=1)
    n = mean_a.shape[-1]
    mean_b = check_array(b.mean, "mean", length=n)
    var_a = check_array(a.var, "variance", length=n)
    var_b = check_array(b.var, "variance", length=n)
    if (var_a < 0).any() or (var_b < 0).any():
        raise ValueError("variances must be non-negative")
    va = np.maximum(var_a, VARIANCE_FLOOR)
    vb = np.maximum(var_b, VARIANCE_FLOOR)
    delta2 = (mean_a - mean_b) ** 2
    # KL(a||b) + KL(b||a) in closed form; the log terms cancel
    per_feature = (va + delta2) / (2 * vb) + (vb + delta2) / (2 * va) - 1.0
    return float(np.add.reduce(per_feature, axis=None) / per_feature.size)


def calibrate_gamma(scores) -> float:
    """Shift threshold from held-out in-distribution score samples.

    Takes the ``GAMMA_PERCENTILE`` percentile of the stationary score
    distribution and multiplies by ``GAMMA_HEADROOM`` to keep the
    false-positive rate below the percentile's nominal miss rate.
    """
    scores = check_array(scores, "scores", ndim=1)
    if scores.shape[0] == 0:
        raise ValueError("need at least one calibration score")
    if np.any(scores < 0):
        raise ValueError("shift scores must be non-negative")
    return float(np.percentile(scores, GAMMA_PERCENTILE) * GAMMA_HEADROOM)


@dataclass
class Telemetry:
    batches: int = 0
    adapted_batches: int = 0
    frozen_batches: int = 0
    forward_passes: int = 0
    retrieval_forwards: int = 0
    rescue_forwards: int = 0
    shifts_detected: int = 0
    stops: int = 0

    def expected_forward_passes(self, population_size: int) -> int:
        return (
            population_size * self.adapted_batches
            + self.frozen_batches
            + self.retrieval_forwards
            + self.rescue_forwards
        )

    def identity_holds(self, population_size: int) -> bool:
        """Forward passes and batches both add up over the two paths."""
        return (
            self.forward_passes == self.expected_forward_passes(population_size)
            and self.batches == self.adapted_batches + self.frozen_batches
        )

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class BatchReport:
    batch_index: int
    mode: str
    fitness_best: float
    rel_mean_change: float
    shift_score: float
    shift_detected: bool
    forward_passes: int


class PaceController:
    """Streaming adapter around a frozen model.

    ``process_batch`` consumes unlabeled batches in temporal order and returns
    class probabilities; between batches all state mutation is sequential.
    The controller is FROZEN exactly while it holds a frozen offset.
    """

    def __init__(
        self,
        model: AdaptableModel,
        source_stats: SourceStats,
        config: ControllerConfig = ControllerConfig(),
    ):
        self.model = model
        self.source_stats = source_stats
        self.config = config
        self.projector = FastfoodProjector(d=config.dim, D=model.offset_dim, seed=config.seed)
        self.fitness_config = FitnessConfig(lambda_weight=config.lambda_weight)
        self.cmaes_state = cmaes.init(
            config.dim, tau0=config.tau0, population_size=config.population_size
        )
        self.bank = VectorBank(config.dim, config.bank_capacity)
        self.rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=(7,)))
        )
        self.frozen_offset: np.ndarray | None = None
        self.ema: EmaStats | None = None
        self.telemetry = Telemetry()

    @property
    def mode(self) -> str:
        return ADAPTING if self.frozen_offset is None else FROZEN

    # -- public API ----------------------------------------------------------

    def process_batch(self, batch) -> tuple[np.ndarray, BatchReport]:
        """Serve one batch; a batch that fails validation raises before any state moves."""
        mode = self.mode
        if self.frozen_offset is None:
            # the candidate draw comes before the first forward, so check here
            batch = check_batch(batch, "batch", width=self.model.config.in_dim)
            outcome = self._process_adapting(batch)
        else:
            # the frozen forward checks the batch before any state moves
            outcome = self._process_frozen(batch)
        probs, fitness_best, rel_change, score, shift, forward_passes = outcome
        report = BatchReport(
            batch_index=self.telemetry.batches,
            mode=mode,
            fitness_best=float(fitness_best),
            rel_mean_change=float(rel_change),
            shift_score=float(score),
            shift_detected=shift,
            forward_passes=forward_passes,
        )
        self.telemetry.batches += 1
        self.telemetry.forward_passes += forward_passes
        return probs, report

    # -- internals -----------------------------------------------------------

    def _detect(self, stats) -> tuple[EmaStats | None, float, bool]:
        """Batch stem statistics to blend into the EMA, shift score and shift decision.

        The score is nan, and no shift is seen, before any EMA exists and for
        overflowing statistics.  Overflowing statistics, and statistics whose
        score against the EMA is not finite, come back as None: blended in,
        they would poison the EMA for good.
        """
        batch_stats = EmaStats(stats.stem_mean, stats.stem_var)
        if not (np.isfinite(batch_stats.mean).all() and np.isfinite(batch_stats.var).all()):
            return None, np.nan, False
        if self.ema is None:
            return batch_stats, np.nan, False
        with np.errstate(over="ignore", invalid="ignore"):
            score = shift_score(self.ema, batch_stats)
        if not np.isfinite(score):
            return None, score, False
        return batch_stats, score, score > self.config.gamma

    def _shift(self, batch, batch_stats: EmaStats) -> int:
        """Archive the mean, restart search and detector from the bank and the batch.

        Returns the forward passes the bank's retrieval cost.
        """
        self.telemetry.shifts_detected += 1
        self.bank.archive(self.cmaes_state.mean)
        result = self.bank.retrieve_init(
            batch, self.model, self.projector, self.source_stats, self.fitness_config
        )
        self.telemetry.retrieval_forwards += result.forward_passes
        self.cmaes_state = cmaes.reinitialized(self.cmaes_state, result.vector, self.config.tau0)
        self.frozen_offset = None
        self.ema = batch_stats
        return result.forward_passes

    def _process_adapting(self, batch):
        cfg = self.config
        population = cmaes.sample_population(self.cmaes_state, self.rng)
        bad_rows = ~np.all(np.isfinite(population), axis=1)
        if bad_rows.any():
            # a blown-up step size can overflow samples; fall back to the mean
            # so the batch is still served and the forward count stays exact
            population[bad_rows] = self.cmaes_state.mean
        offsets = self.projector.transform(population)
        probs, stats = self.model.forward(offsets, batch)
        scores = fitness(probs, stats, self.source_stats, self.fitness_config)
        self.telemetry.adapted_batches += 1
        forward_passes = cfg.population_size
        if not np.isfinite(scores).any():
            # degenerate batch: serve the unadapted model, keep all state
            probs, _ = self.model.forward(self.model.zero_offset(), batch)
            self.telemetry.rescue_forwards += 1
            return probs, np.nan, np.nan, np.nan, False, forward_passes + 1

        best = int(np.argmin(scores))
        predictions = probs[best].copy()  # a view would keep all K candidates alive
        batch_stats, score, shift = self._detect(stats)
        shift = shift and cfg.shift_while_adapting
        rel_change = np.nan
        if shift:
            forward_passes += self._shift(batch, batch_stats)
        else:
            candidates = [
                cmaes.RankedCandidate(population[k], float(scores[k]))
                for k in range(cfg.population_size)
            ]
            self.cmaes_state, rel_change = cmaes.update(self.cmaes_state, candidates)
            if batch_stats is not None:
                self.ema = update_ema(self.ema, batch_stats, cfg.beta)
            # inf from the origin, so never below epsilon there; epsilon 0 never stops
            if rel_change < cfg.epsilon:
                self.frozen_offset = self.projector.project(self.cmaes_state.mean)
                self.telemetry.stops += 1
        return predictions, scores[best], rel_change, score, shift, forward_passes

    def _process_frozen(self, batch):
        probs, stats = self.model.forward(self.frozen_offset, batch)
        forward_passes = 1
        best_fitness = fitness(probs, stats, self.source_stats, self.fitness_config)
        batch_stats, score, shift = self._detect(stats)
        if shift:
            forward_passes += self._shift(batch, batch_stats)
        self.telemetry.frozen_batches += 1
        return probs, best_fitness, np.nan, score, shift, forward_passes
