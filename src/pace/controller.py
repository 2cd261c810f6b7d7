"""Per-batch adaptation state machine.

While ADAPTING, each test batch is served by the best of ``population_size``
candidate offsets sampled around the current search mean, all projected,
evaluated and scored in one population pass; the distribution is then updated
from the candidates' fitness ranking.  Adaptation freezes once the relative
change of the mean falls below ``epsilon``: the stop projects the mean and
binds it into the model's per-layer affines (``model.bind``), once.  A FROZEN
batch then costs one ``model.serve`` of those affines plus the shift
detector, and is not scored, so its report's ``fitness_best`` is nan.  Every
batch, adapting or frozen, is compared with an exponential moving average of
stem-layer statistics via a symmetric KL score; above ``gamma``, a mean
adapted from the zero vector is archived in the vector bank and a start is
retrieved by fitness, in place of any CMA-ES update.  A stored entry that
wins is bound and served frozen from the next batch on, with no adapting
episode (``epsilon = 0`` adapts from it instead).  When the zero vector wins,
the binding is dropped and adaptation resumes from it.

So the bank holds only means adapted from zero, and a domain that recurs is
served by its stored entry instead of being adapted again.  An episode that
started from a hit stores nothing at the next shift, so no entry is ever
overwritten.

The batch's stem statistics and the EMA are ``EmaStats`` records, checked
and floored where they are built, so a scored batch builds and checks its
own statistics once, and the EMA is checked once per blend or shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cmaes
from .bank import VectorBank
from .fitness import FitnessConfig, fitness
from .model import AdaptableModel, SourceStats
from .projection import FastfoodProjector
from .validation import (
    NonFiniteError,
    check_array,
    check_batch,
    store_int,
    store_real,
)

ADAPTING = "adapting"
FROZEN = "frozen"
VARIANCE_FLOOR = 1e-8  # EmaStats' lower bound on a feature variance, for shift_score
GAMMA_PERCENTILE = 99.5  # calibrate_gamma's percentile of the stationary scores
GAMMA_HEADROOM = 2.5  # and the factor it is multiplied by


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the adaptation loop.

    The defaults are a library starting point, not the benchmark's settings:
    ``pace run`` and the benchmark build their config from ``RunConfig``
    (``tau0=0.05``, ``epsilon=0.1``) with
    ``pace.bench.run.controller_config_for_method``.  ``epsilon = 0`` never
    stops adapting, and adapts from a bank hit instead of freezing at it.
    ``gamma = inf`` never detects a shift, so the bank stays empty; the
    detector still scores every batch (the report's ``shift_score``).  A
    frozen batch is one ``serve`` of the affines bound at the stop or the
    bank hit and the detector: no offset check, no fitness, no block moments.
    """

    dim: int = 32
    population_size: int = 12
    tau0: float = 0.01
    epsilon: float = 0.045
    gamma: float = 0.03
    beta: float = 0.8
    lambda_weight: float = 0.4
    bank_capacity: int = 30
    seed: int = 0

    def __post_init__(self):
        store_int(self, "dim")
        store_int(self, "population_size", minimum=2)
        store_int(self, "bank_capacity", minimum=0)
        store_int(self, "seed", minimum=0)
        store_real(self, "tau0", 0, np.inf, "()")
        store_real(self, "epsilon", 0, np.inf, "[]")
        store_real(self, "gamma", 0, np.inf, "(]")  # inf never detects a shift
        store_real(self, "beta", 0, 1, "(]")
        object.__setattr__(self, "lambda_weight", FitnessConfig(self.lambda_weight).lambda_weight)


@dataclass(frozen=True)
class EmaStats:
    """Per-feature mean/variance pair tracked by the detector, checked where it is built.

    Holds read-only float64 copies of the mean and the variance, checked
    finite, 1-D, of one length and non-negative, and the variance floored at
    ``VARIANCE_FLOOR`` and twice that.  Frozen, so no field can be reassigned
    after its checks: a batch's statistics are checked and floored once, and
    the EMA once per blend, not once per score.
    """

    mean: np.ndarray
    var: np.ndarray
    floored: np.ndarray = field(init=False, repr=False)
    twice_floored: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = check_array(self.mean, "mean", ndim=1).copy()
        var = check_array(self.var, "variance", ndim=1, length=mean.shape[0]).copy()
        if (var < 0).any():
            raise ValueError("variances must be non-negative")
        floored = np.maximum(var, VARIANCE_FLOOR)
        arrays = dict(mean=mean, var=var, floored=floored, twice_floored=2 * floored)
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def _check_lengths(a: EmaStats, b: EmaStats) -> None:
    if a.mean.shape != b.mean.shape:
        raise ValueError(
            f"statistics of {a.mean.shape[0]} and {b.mean.shape[0]} features do not match"
        )


def update_ema(ema: EmaStats | None, batch_stats: EmaStats, beta: float) -> EmaStats:
    """Convex blend weighting the latest batch by ``beta``; the first call returns the batch."""
    if ema is None:
        return batch_stats
    _check_lengths(ema, batch_stats)
    return EmaStats(
        beta * batch_stats.mean + (1 - beta) * ema.mean,
        beta * batch_stats.var + (1 - beta) * ema.var,
    )


def shift_score(a: EmaStats, b: EmaStats) -> float:
    """Symmetric KL divergence between per-feature Gaussians, averaged over features.

    Each feature is treated as a univariate Gaussian given its (mean,
    variance) pair; variances are floored at ``VARIANCE_FLOOR`` to keep
    degenerate batches from producing infinities.  Identical statistics score
    exactly 0.  Both pairs were checked and floored when they were built, so
    only their lengths are compared here.
    """
    _check_lengths(a, b)
    delta2 = (a.mean - b.mean) ** 2
    # KL(a||b) + KL(b||a) in closed form; the log terms cancel
    per_feature = (
        (a.floored + delta2) / b.twice_floored + (b.floored + delta2) / a.twice_floored - 1.0
    )
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
    bank_hits: int = 0  # shifts whose retrieval returned a stored entry
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
    The controller is FROZEN exactly while it holds a frozen offset and its binding.
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
        self.from_bank = False  # started from a bank entry: the next shift stores nothing
        self.rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=(7,)))
        )
        self.frozen_offset: np.ndarray | None = None
        self._frozen_affines: tuple | None = None  # model.bind(frozen_offset)
        self.ema: EmaStats | None = None  # the detector's, None before the first scored batch
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

    def _detect(self, stem_mean, stem_var) -> tuple[EmaStats | None, float, bool]:
        """Batch stem statistics to blend into the EMA, shift score and shift decision.

        The batch's ``EmaStats`` is built once, which checks and floors its
        statistics.  The score is nan, and no shift is seen, before any EMA
        exists and for overflowing statistics.  Overflowing statistics, and
        statistics whose score against the EMA is not finite, come back as
        None: blended in, they would poison the EMA for good.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                batch_stats = EmaStats(stem_mean, stem_var)
            except NonFiniteError:
                return None, np.nan, False
            if self.ema is None:
                return batch_stats, np.nan, False
            score = shift_score(self.ema, batch_stats)
        if not math.isfinite(score):
            return None, score, False
        return batch_stats, score, score > self.config.gamma

    def _shift(self, batch, batch_stats: EmaStats) -> int:
        """Store the mean, restart search and detector from the bank and the batch.

        Only a mean adapted from the zero vector is archived; a search that
        started from a bank entry stores nothing.  A bank hit, with
        ``epsilon > 0``, binds the stored entry and freezes at once.  Returns
        the forward passes the bank's retrieval cost.
        """
        self.telemetry.shifts_detected += 1
        if not self.from_bank:
            self.bank.archive(self.cmaes_state.mean)
        result = self.bank.retrieve_init(
            batch, self.model, self.projector, self.source_stats, self.fitness_config
        )
        self.from_bank = result.slot is not None
        self.telemetry.bank_hits += self.from_bank
        self.telemetry.retrieval_forwards += result.forward_passes
        self.cmaes_state = cmaes.reinitialized(self.cmaes_state, result.vector, self.config.tau0)
        self.ema = batch_stats
        if self.from_bank and self.config.epsilon > 0:
            self._freeze()
        else:
            self.frozen_offset = None
            self._frozen_affines = None
        return result.forward_passes

    def _freeze(self) -> None:
        """Project the search mean and bind it into the model's affines, once."""
        self.frozen_offset = self.projector.project(self.cmaes_state.mean)
        self._frozen_affines = self.model.bind(self.frozen_offset)

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
            probs, _ = self.model.serve(self.model.bind(self.model.zero_offset()), batch)
            self.telemetry.rescue_forwards += 1
            return probs, np.nan, np.nan, np.nan, False, forward_passes + 1

        best = int(np.argmin(scores))
        predictions = probs[best].copy()  # a view would keep all K candidates alive
        batch_stats, score, shift = self._detect(stats.stem_mean, stats.stem_var)
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
                self._freeze()
                self.telemetry.stops += 1
        return predictions, scores[best], rel_change, score, shift, forward_passes

    def _process_frozen(self, batch):
        probs, stem = self.model.serve(self._frozen_affines, batch)
        forward_passes = 1
        batch_stats, score, shift = self._detect(*stem)
        if shift:
            forward_passes += self._shift(batch, batch_stats)
        self.telemetry.frozen_batches += 1
        return probs, np.nan, np.nan, score, shift, forward_passes
