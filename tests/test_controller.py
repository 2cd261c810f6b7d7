from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import pace.controller as ctrl
from pace.bench.run import controller_config_for_method
from pace.bench.stream import DomainSpec, StreamConfig, generate_stream
from pace.controller import (
    ADAPTING,
    FROZEN,
    GAMMA_HEADROOM,
    GAMMA_PERCENTILE,
    ControllerConfig,
    EmaStats,
    PaceController,
    calibrate_gamma,
    shift_score,
    update_ema,
)
from pace.fitness import FitnessConfig, fitness


class TestUpdateEma:
    def test_beta_one_takes_batch(self):
        ema = EmaStats(np.zeros(2), np.ones(2))
        batch = EmaStats(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        out = update_ema(ema, batch, beta=1.0)
        np.testing.assert_array_equal(out.mean, batch.mean)
        np.testing.assert_array_equal(out.var, batch.var)

    def test_beta_zero_keeps_ema(self):
        ema = EmaStats(np.array([5.0]), np.array([6.0]))
        out = update_ema(ema, EmaStats(np.array([1.0]), np.array([1.0])), beta=0.0)
        np.testing.assert_array_equal(out.mean, [5.0])
        np.testing.assert_array_equal(out.var, [6.0])

    def test_convex_blend(self):
        ema = EmaStats(np.array([0.0]), np.array([0.0]))
        out = update_ema(ema, EmaStats(np.array([1.0]), np.array([1.0])), beta=0.8)
        assert out.mean[0] == pytest.approx(0.8)
        assert out.var[0] == pytest.approx(0.8)

    def test_first_call_initializes(self):
        batch = EmaStats(np.array([2.0]), np.array([3.0]))
        out = update_ema(None, batch, beta=0.8)
        np.testing.assert_array_equal(out.mean, [2.0])
        np.testing.assert_array_equal(out.var, [3.0])


class TestShiftScore:
    def test_identical_stats_zero(self):
        a = EmaStats(np.array([0.3, -1.0]), np.array([2.0, 0.5]))
        assert shift_score(a, EmaStats(a.mean.copy(), a.var.copy())) == 0.0

    def test_unit_mean_shift_closed_form(self):
        a = EmaStats(np.array([0.0]), np.array([1.0]))
        b = EmaStats(np.array([1.0]), np.array([1.0]))
        assert shift_score(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_variance_ratio_closed_form(self):
        a = EmaStats(np.array([0.0]), np.array([1.0]))
        b = EmaStats(np.array([0.0]), np.array([4.0]))
        assert shift_score(a, b) == pytest.approx(1.125, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = EmaStats(rng.standard_normal(5), rng.random(5) + 0.1)
        b = EmaStats(rng.standard_normal(5), rng.random(5) + 0.1)
        assert shift_score(a, b) == pytest.approx(shift_score(b, a), abs=1e-14)

    def test_variance_floor_prevents_infinity(self):
        a = EmaStats(np.array([0.0]), np.array([0.0]))
        b = EmaStats(np.array([1.0]), np.array([0.0]))
        value = shift_score(a, b)
        assert np.isfinite(value) and value > 0

    def test_negative_variance_rejected(self):
        a = EmaStats(np.array([0.0]), np.array([-1.0]))
        b = EmaStats(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            shift_score(a, b)

    def test_zero_dimensional_statistics_rejected(self):
        scalar = EmaStats(np.float64(1.0), np.float64(1.0))
        vector = EmaStats(np.zeros(3), np.ones(3))
        for pair in ((scalar, vector), (vector, scalar)):
            with pytest.raises(ValueError, match=r"shape \(\)"):
                shift_score(*pair)

    @pytest.mark.parametrize("var", [[4.0], [1.0, 1.0, np.nan, 1.0]])
    def test_variance_checked_like_the_mean(self, var):
        # a length-1 variance would broadcast; a NaN one would score nan
        a = EmaStats(np.zeros(4), np.ones(4))
        b = EmaStats(np.zeros(4), np.array(var))
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="variance"):
                shift_score(*pair)


class TestCalibrateGamma:
    def test_percentile_and_headroom(self):
        scores = np.linspace(0.0, 1.0, 1001)
        assert calibrate_gamma(scores) == pytest.approx(
            GAMMA_HEADROOM * GAMMA_PERCENTILE / 100, abs=1e-9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_gamma([])
        with pytest.raises(ValueError):
            calibrate_gamma([-0.1, 0.2])


def _stream_config(specs, seed=0, **overrides):
    base = dict(
        base_task="blobs8",
        in_dim=2,
        class_count=3,
        batch_size=32,
        seed=seed,
        blob_radius=4.0,
        blob_std=0.5,
        blob_center=2.0,
    )
    base.update(overrides)
    return StreamConfig(domain_sequence=tuple(specs), **base)


# config overrides under which the boundary shift is seen while frozen / while adapting
SHIFT_WHILE = {FROZEN: {}, ADAPTING: dict(epsilon=0.0, shift_while_adapting=True)}


@pytest.fixture(scope="module")
def adapted_setup(tiny_setup):
    _, model, stats = tiny_setup
    config = ControllerConfig(
        dim=8,
        population_size=6,
        tau0=0.05,
        epsilon=0.1,
        gamma=0.5,
        bank_capacity=5,
        seed=0,
    )
    return model, stats, config


class TestProcessBatch:
    def test_stationary_stream_freezes_once_then_single_forward(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config([DomainSpec("feature_scale", 1.8, 120)], seed=3)
        modes = []
        transitions = 0
        prev = ADAPTING
        for batch in generate_stream(stream_cfg):
            probs, report = controller.process_batch(batch.features)
            assert probs.shape == (32, 3)
            modes.append(report.mode)
            if report.mode == FROZEN and prev == ADAPTING:
                transitions += 1
            if report.mode == FROZEN:
                assert report.forward_passes == 1
                assert not report.shift_detected
            prev = report.mode
        assert transitions == 1
        assert FROZEN in modes
        assert controller.telemetry.identity_holds(config.population_size)

    def test_adapting_batch_costs_population_forwards(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config([DomainSpec("feature_scale", 1.8, 3)], seed=4)
        for batch in generate_stream(stream_cfg):
            _, report = controller.process_batch(batch.features)
            if report.mode == ADAPTING:
                assert report.forward_passes == config.population_size

    def test_frozen_ema_bitwise_stable_without_shift(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config([DomainSpec("feature_scale", 1.8, 150)], seed=5)
        ema_snapshot = None
        for batch in generate_stream(stream_cfg):
            _, report = controller.process_batch(batch.features)
            if controller.mode == FROZEN:
                if ema_snapshot is None:
                    ema_snapshot = (controller.ema.mean.copy(), controller.ema.var.copy())
                else:
                    np.testing.assert_array_equal(controller.ema.mean, ema_snapshot[0])
                    np.testing.assert_array_equal(controller.ema.var, ema_snapshot[1])

    def test_shift_detected_on_exact_boundary_batch(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config(
            [DomainSpec("feature_scale", 1.8, 80), DomainSpec("feature_scale", 0.4, 10)],
            seed=6,
        )
        shift_batches = []
        for batch in generate_stream(stream_cfg):
            _, report = controller.process_batch(batch.features)
            if report.shift_detected:
                shift_batches.append(batch.index)
        assert shift_batches == [80]
        assert controller.telemetry.shifts_detected == 1
        assert controller.telemetry.identity_holds(config.population_size)

    @pytest.mark.parametrize("mode", SHIFT_WHILE)
    def test_post_shift_mean_matches_retrieval_argmin(self, adapted_setup, mode):
        model, stats, config = adapted_setup
        config = replace(config, **SHIFT_WHILE[mode])
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config(
            [DomainSpec("feature_scale", 1.8, 80), DomainSpec("feature_scale", 0.4, 1)],
            seed=7,
        )
        batches = list(generate_stream(stream_cfg))
        archived_before = None
        for batch in batches[:-1]:
            controller.process_batch(batch.features)
        assert controller.mode == mode
        mean_at_stop = controller.cmaes_state.mean.copy()
        bank_before = [v.copy() for v in controller.bank.vectors]
        _, report = controller.process_batch(batches[-1].features)
        assert report.shift_detected
        # Eq.-style oracle: fitness argmin over (bank after archive) + zero vector
        candidates = [np.zeros(config.dim)] + bank_before + [mean_at_stop]
        scores = []
        for cand in candidates:
            probs, st = model.forward(controller.projector.project(cand), batches[-1].features)
            scores.append(fitness(probs, st, stats, FitnessConfig(config.lambda_weight)))
        expected = candidates[int(np.argmin(scores))]
        np.testing.assert_array_equal(controller.cmaes_state.mean, expected)
        assert controller.mode == ADAPTING
        # detector EMA restarts from the shifted batch
        _, st = model.forward(model.zero_offset(), batches[-1].features)
        np.testing.assert_array_equal(controller.ema.mean, st.stem_mean)

    @pytest.mark.parametrize("mode", SHIFT_WHILE)
    def test_shift_resets_search_distribution(self, adapted_setup, mode):
        model, stats, config = adapted_setup
        config = replace(config, **SHIFT_WHILE[mode])
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config(
            [DomainSpec("feature_scale", 1.8, 80), DomainSpec("feature_scale", 0.4, 1)],
            seed=8,
        )
        for batch in generate_stream(stream_cfg):
            _, report = controller.process_batch(batch.features)
        assert report.mode == mode and report.shift_detected
        state = controller.cmaes_state
        np.testing.assert_array_equal(state.covariance, np.eye(config.dim))
        assert state.step_size == config.tau0
        assert state.iteration == 0

    def test_rejects_non_finite_batch(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        bad = np.ones((4, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            controller.process_batch(bad)

    @pytest.mark.parametrize("defect", ["nan", "width"])
    def test_rejected_batch_leaves_controller_untouched(self, adapted_setup, defect):
        model, stats, config = adapted_setup
        stream_cfg = _stream_config(
            [DomainSpec("feature_scale", 1.8, 40), DomainSpec("feature_scale", 0.4, 20)],
            seed=13,
        )
        batches = [batch.features for batch in generate_stream(stream_cfg)]
        clean = PaceController(model, stats, config)
        rejecting = PaceController(model, stats, config)
        modes_at_rejection = []
        for index, batch in enumerate(batches):
            if index in (5, 35):
                bad = batch.copy()
                if defect == "nan":
                    bad[0, 0] = np.nan
                else:
                    bad = np.hstack([bad, bad[:, :1]])
                modes_at_rejection.append(rejecting.mode)
                with pytest.raises(ValueError):
                    rejecting.process_batch(bad)
            probs_clean, report_clean = clean.process_batch(batch)
            probs, report = rejecting.process_batch(batch)
            np.testing.assert_array_equal(probs, probs_clean)
            np.testing.assert_equal(vars(report), vars(report_clean))
        assert modes_at_rejection == [ADAPTING, FROZEN]
        assert rejecting.telemetry == clean.telemetry
        telem = rejecting.telemetry
        assert telem.batches == telem.adapted_batches + telem.frozen_batches == 60
        assert telem.shifts_detected >= 1

    def test_identity_counts_batches_across_a_rejected_batch(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config([DomainSpec("feature_scale", 1.8, 30)], seed=14)
        for batch in generate_stream(stream_cfg):
            if batch.index == 3:
                with pytest.raises(ValueError):
                    controller.process_batch(np.full_like(batch.features, np.nan))
            controller.process_batch(batch.features)
        telem = controller.telemetry
        assert telem.batches == 30
        assert telem.identity_holds(config.population_size)
        telem.batches += 1  # a batch counted on neither path breaks the identity
        assert not telem.identity_holds(config.population_size)

    def test_overflowing_frozen_batch_is_served_and_counted_once(self, standard_assets):
        config, model, stats, gamma = standard_assets
        controller_cfg = controller_config_for_method(config, gamma)
        batches = [batch.features for batch in generate_stream(config.stream_config())][:120]
        clean = PaceController(model, stats, controller_cfg)
        hit = PaceController(model, stats, controller_cfg)
        injected = False
        for batch in batches:
            if hit.mode == FROZEN and not injected:
                bad = batch.copy()
                bad[:, 0] = 1e307  # finite, so it passes validation; the stem mean overflows
                _, report = hit.process_batch(bad)
                assert report.mode == FROZEN and not report.shift_detected
                assert np.isnan(report.shift_score)
                assert hit.telemetry.identity_holds(controller_cfg.population_size)
                injected = True
            probs_clean, report_clean = clean.process_batch(batch)
            probs, report = hit.process_batch(batch)
            np.testing.assert_array_equal(probs, probs_clean)
            assert report.batch_index == report_clean.batch_index + injected
            np.testing.assert_equal(
                {**vars(report), "batch_index": 0}, {**vars(report_clean), "batch_index": 0}
            )
        assert injected and clean.telemetry.shifts_detected >= 1
        telem = hit.telemetry
        assert telem.identity_holds(controller_cfg.population_size)
        assert (telem.batches, telem.frozen_batches, telem.forward_passes) == (
            clean.telemetry.batches + 1,
            clean.telemetry.frozen_batches + 1,
            clean.telemetry.forward_passes + 1,
        )

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(1e307, id="stats-overflow"),  # the stem mean overflows: nan score
            pytest.param(1e160, id="score-overflow"),  # finite stem stats, inf score
        ],
    )
    def test_overflowing_adapting_batch_stays_out_of_the_ema(self, standard_assets, value):
        config, model, stats, gamma = standard_assets
        controller_cfg = controller_config_for_method(config, gamma)
        batches = [batch.features for batch in generate_stream(config.stream_config())][:120]
        controller = PaceController(model, stats, controller_cfg)
        for index, batch in enumerate(batches):
            if index == 3:
                assert controller.mode == ADAPTING
                ema_before = EmaStats(controller.ema.mean.copy(), controller.ema.var.copy())
                bad = batch.copy()
                bad[:, 0] = value  # finite, so it passes validation
                probs, report = controller.process_batch(bad)
                assert np.isfinite(probs).all()
                assert report.mode == ADAPTING and not report.shift_detected
                assert not np.isfinite(report.shift_score)
                np.testing.assert_array_equal(controller.ema.mean, ema_before.mean)
                np.testing.assert_array_equal(controller.ema.var, ema_before.var)
            controller.process_batch(batch)
            assert np.isfinite(controller.ema.mean).all() and np.isfinite(controller.ema.var).all()
        telem = controller.telemetry
        assert telem.batches == 121 and telem.shifts_detected >= 1
        assert telem.identity_holds(controller_cfg.population_size)

    def test_all_candidates_non_finite_served_by_zero_offset(
        self, adapted_setup, monkeypatch
    ):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        batch = np.random.default_rng(0).standard_normal((8, 2))
        mean_before = controller.cmaes_state.mean.copy()
        expected = model.forward(model.zero_offset(), batch)[0]
        monkeypatch.setattr(ctrl, "fitness", lambda *a, **k: np.nan)
        probs, report = controller.process_batch(batch)
        np.testing.assert_array_equal(probs, expected)
        np.testing.assert_array_equal(controller.cmaes_state.mean, mean_before)
        assert controller.telemetry.rescue_forwards == 1
        assert report.forward_passes == config.population_size + 1
        assert controller.telemetry.identity_holds(config.population_size)

    def test_single_nan_candidate_ranked_worst(self, adapted_setup, monkeypatch):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        batch = np.random.default_rng(1).standard_normal((8, 2))
        real_fitness = fitness
        clean = {}

        def poisoned(*args, **kwargs):
            # the population is scored in one call; poison the first candidate's row
            scores = np.array(real_fitness(*args, **kwargs), dtype=np.float64)
            clean["scores"] = scores.copy()
            scores[0] = np.inf
            return scores

        monkeypatch.setattr(ctrl, "fitness", poisoned)
        probs, report = controller.process_batch(batch)
        assert clean["scores"].shape == (config.population_size,)
        assert np.isfinite(report.fitness_best)
        assert report.fitness_best == clean["scores"][1:].min()
        assert np.all(np.isfinite(probs))
        assert controller.telemetry.identity_holds(config.population_size)

    def test_predictions_come_from_lowest_fitness_candidate(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        batch = np.random.default_rng(2).standard_normal((8, 2))
        # replay the controller's sampling deterministically
        rng_clone = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(config.seed, spawn_key=(7,)))
        )
        from pace import cmaes as cm

        population = cm.sample_population(controller.cmaes_state, rng_clone)
        offsets = controller.projector.transform(population)
        scores, probs_all = [], []
        for k in range(config.population_size):
            p, st = model.forward(offsets[k], batch)
            scores.append(fitness(p, st, stats, FitnessConfig(config.lambda_weight)))
            probs_all.append(p)
        best = int(np.argmin(scores))
        probs, report = controller.process_batch(batch)
        np.testing.assert_array_equal(probs, probs_all[best])
        assert report.fitness_best == pytest.approx(scores[best])

    def test_epsilon_zero_never_stops(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, replace(config, epsilon=0.0))
        stream_cfg = _stream_config([DomainSpec("feature_scale", 1.8, 40)], seed=10)
        for batch in generate_stream(stream_cfg):
            controller.process_batch(batch.features)
        assert controller.mode == ADAPTING

    def test_shift_while_adapting_archives_and_restarts(self, adapted_setup):
        model, stats, config = adapted_setup
        cfg = replace(config, epsilon=0.0, shift_while_adapting=True)
        controller = PaceController(model, stats, cfg)
        stream_cfg = _stream_config(
            [DomainSpec("feature_scale", 1.8, 50), DomainSpec("feature_scale", 0.4, 5)],
            seed=11,
        )
        shifts = []
        for batch in generate_stream(stream_cfg):
            _, report = controller.process_batch(batch.features)
            if report.shift_detected:
                shifts.append(batch.index)
                assert report.mode == ADAPTING
        assert shifts == [50]
        assert controller.bank.count == 1
        assert controller.telemetry.identity_holds(cfg.population_size)

    def test_forward_pass_identity_with_shift_events(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config(
            [
                DomainSpec("feature_scale", 1.8, 70),
                DomainSpec("feature_scale", 0.4, 70),
                DomainSpec("feature_scale", 2.5, 70),
            ],
            seed=12,
        )
        for batch in generate_stream(stream_cfg):
            controller.process_batch(batch.features)
        telem = controller.telemetry
        assert telem.shifts_detected >= 2
        assert telem.batches == 210
        assert telem.adapted_batches + telem.frozen_batches == telem.batches
        assert telem.forward_passes == (
            config.population_size * telem.adapted_batches
            + telem.frozen_batches
            + telem.retrieval_forwards
            + telem.rescue_forwards
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(beta=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(beta=1.5)
        with pytest.raises(ValueError):
            ControllerConfig(gamma=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(tau0=-1.0)
        with pytest.raises(ValueError):
            ControllerConfig(gamma=np.nan)
        with pytest.raises(ValueError):
            ControllerConfig(tau0=np.nan)
        with pytest.raises(ValueError):
            ControllerConfig(tau0=np.inf)
        with pytest.raises(ValueError):
            ControllerConfig(dim=0)
        with pytest.raises(ValueError):
            ControllerConfig(population_size=2.5)
        with pytest.raises(ValueError):
            ControllerConfig(bank_capacity=-1)


class TestBaseWeightImmutability:
    def test_zero_offset_equivalence_after_adapt_stop_resume_cycles(self, adapted_setup):
        model, stats, config = adapted_setup
        probe = np.random.default_rng(20).standard_normal((16, 2))
        before = model.forward(model.zero_offset(), probe)[0]
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config(
            [
                DomainSpec("feature_scale", 1.8, 60),
                DomainSpec("feature_scale", 0.4, 60),
                DomainSpec("feature_scale", 2.5, 60),
            ],
            seed=21,
        )
        for batch in generate_stream(stream_cfg):
            controller.process_batch(batch.features)
        assert controller.telemetry.shifts_detected >= 1
        assert controller.telemetry.stops >= 1
        after = model.forward(model.zero_offset(), probe)[0]
        np.testing.assert_array_equal(before, after)


class TestDegenerateSampling:
    def test_overflowed_samples_fall_back_to_mean(self, adapted_setup, monkeypatch):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        from pace import cmaes as cm

        real_sample = cm.sample_population

        def overflowing(state, rng):
            pop = real_sample(state, rng)
            pop[0] = np.inf
            return pop

        monkeypatch.setattr(ctrl.cmaes, "sample_population", overflowing)
        batch = np.random.default_rng(30).standard_normal((8, 2))
        probs, report = controller.process_batch(batch)
        assert np.all(np.isfinite(probs))
        assert report.forward_passes == config.population_size
        assert controller.telemetry.identity_holds(config.population_size)

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            ControllerConfig(epsilon=np.nan)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            ControllerConfig(epsilon=-0.1)
