from __future__ import annotations

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import pace.controller as ctrl
import pace.model
from pace.bench.run import controller_config_for_method
from pace.bench.stream import DomainSpec, StreamConfig, generate_stream
from pace.controller import (
    ADAPTING,
    FROZEN,
    GAMMA_HEADROOM,
    GAMMA_PERCENTILE,
    VARIANCE_FLOOR,
    ControllerConfig,
    EmaReference,
    EmaStats,
    PaceController,
    calibrate_gamma,
    shift_score,
    update_ema,
)
from pace.fitness import FitnessConfig, fitness
from pace.validation import NonFiniteError


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


def _closed_form_score(a: EmaStats, b: EmaStats) -> float:
    """``shift_score``'s formula written out over plain arrays, with no reference."""
    va = np.maximum(a.var, VARIANCE_FLOOR)
    vb = np.maximum(b.var, VARIANCE_FLOOR)
    delta2 = (a.mean - b.mean) ** 2
    per_feature = (va + delta2) / (2 * vb) + (vb + delta2) / (2 * va) - 1.0
    return float(np.add.reduce(per_feature, axis=None) / per_feature.size)


def _random_stats(rng, n) -> EmaStats:
    """Means and variances over many decades, a third of the variances zero, floored or 1e150."""
    var = rng.random(n) * 10.0 ** rng.integers(-12, 4, size=n)
    picked = rng.random(n) < 0.35
    var[picked] = rng.choice([0.0, 1e-20, VARIANCE_FLOOR, 1e150], size=int(picked.sum()))
    return EmaStats(3.0 * rng.standard_normal(n), var)


class TestEmaReference:
    def test_scores_the_bits_of_a_plain_ema(self):
        rng = np.random.default_rng(27)
        for n in (1, 3, 16, 64):
            for _ in range(50):
                a, b = _random_stats(rng, n), _random_stats(rng, n)
                expected = _closed_form_score(a, b)
                assert shift_score(EmaReference(a.mean, a.var), b) == expected
                assert shift_score(a, b) == expected
                # a reference as the batch side is scored as plain statistics
                assert shift_score(b, EmaReference(a.mean, a.var)) == _closed_form_score(b, a)

    def test_holds_read_only_copies(self):
        mean, var = np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.0, 1e-12])
        ref = EmaReference(mean, var)
        for array in (ref.mean, ref.var, ref.floored, ref.twice_floored):
            assert not array.flags.writeable and array.dtype == np.float64
        assert not np.shares_memory(ref.mean, mean) and not np.shares_memory(ref.var, var)
        np.testing.assert_array_equal(ref.floored, [1.0, VARIANCE_FLOOR, VARIANCE_FLOOR])
        np.testing.assert_array_equal(ref.twice_floored, 2 * ref.floored)
        batch = EmaStats(np.zeros(3), np.ones(3))
        before = shift_score(ref, batch)
        mean[:] = 9.0
        var[:] = 9.0
        assert shift_score(ref, batch) == before
        with pytest.raises(FrozenInstanceError):
            ref.var = np.ones(3)
        with pytest.raises(FrozenInstanceError):
            EmaStats(np.zeros(3), np.ones(3)).mean = np.ones(3)

    def test_of_returns_a_reference_itself(self):
        ref = EmaReference(np.zeros(2), np.ones(2))
        assert EmaReference.of(ref) is ref
        plain = EmaStats(np.zeros(2), np.ones(2))
        assert type(EmaReference.of(plain)) is EmaReference

    @pytest.mark.parametrize(
        "mean, var, error, match",
        [
            ([0.0, np.inf], [1.0, 1.0], NonFiniteError, "mean contains non-finite"),
            ([0.0, 0.0], [1.0, np.nan], NonFiniteError, "variance contains non-finite"),
            ([0.0, 0.0], [1.0, -1.0], ValueError, "non-negative"),
            ([0.0, 0.0], [1.0], ValueError, "variance must have length 2"),
            (0.0, 1.0, ValueError, r"shape \(\)"),
        ],
    )
    def test_checks_as_shift_score_checks_its_first_argument(self, mean, var, error, match):
        bad = EmaStats(np.asarray(mean, dtype=np.float64), np.asarray(var, dtype=np.float64))
        good = EmaStats(np.zeros(2), np.ones(2))
        with pytest.raises(error, match=match):
            EmaReference(bad.mean, bad.var)
        with pytest.raises(error, match=match):
            shift_score(bad, good)


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
SHIFT_WHILE = {FROZEN: {}, ADAPTING: dict(epsilon=0.0)}


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

    def test_frozen_batch_is_one_serve_and_the_detector(self, adapted_setup, monkeypatch):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config([DomainSpec("feature_scale", 1.8, 120)], seed=3)
        batches = (batch.features for batch in generate_stream(stream_cfg))
        while controller.mode != FROZEN:
            controller.process_batch(next(batches))
        batch = next(batches)
        expected = model.forward(controller.frozen_offset, batch)[0]
        calls = {"fitness": 0, "_moments": 0, "bind": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(ctrl, "fitness")
        counted(pace.model, "_moments")
        counted(pace.model.AdaptableModel, "bind")
        probs, report = controller.process_batch(batch)
        # no fitness, no bind (the stop bound the offset), and of the moments
        # only the stem tap's, which the detector reads
        assert calls == {"fitness": 0, "_moments": 1, "bind": 0}
        np.testing.assert_array_equal(probs, expected)
        assert report.mode == FROZEN and not report.shift_detected
        assert report.forward_passes == 1
        assert np.isnan(report.fitness_best)
        assert np.isfinite(report.shift_score)

    @pytest.mark.parametrize("setup", ["tiny_setup", "tiny_residual_setup"])
    def test_each_stop_binds_once_and_frozen_batches_serve_it(
        self, setup, adapted_setup, request, monkeypatch
    ):
        _, model, stats = request.getfixturevalue(setup)
        controller = PaceController(model, stats, adapted_setup[2])
        bind, serve = pace.model.AdaptableModel.bind, pace.model.AdaptableModel.serve
        binds, served = [], []

        def counted_bind(self, offset):
            binds.append(offset)
            return bind(self, offset)

        def recorded_serve(self, affines, batch):
            served.append(serve(self, affines, batch))
            return served[-1]

        monkeypatch.setattr(pace.model.AdaptableModel, "bind", counted_bind)
        monkeypatch.setattr(pace.model.AdaptableModel, "serve", recorded_serve)
        specs = [DomainSpec("feature_scale", scale, 40) for scale in (1.8, 0.5, 1.8)]
        frozen = 0
        for batch in generate_stream(_stream_config(specs, seed=3)):
            X = batch.features
            was_frozen = controller.mode == FROZEN
            if was_frozen:
                expected, stats_expected = model.forward(controller.frozen_offset, X)
            telem = controller.telemetry
            freezes, bound = telem.stops + telem.bank_hits, len(binds)
            served.clear()
            probs, report = controller.process_batch(X)
            # a bind exactly when this batch stopped the search or hit the
            # bank, of the offset it froze
            assert len(binds) - bound == telem.stops + telem.bank_hits - freezes
            if len(binds) > bound:
                assert binds[-1] is controller.frozen_offset
            if was_frozen:
                frozen += 1
                [(served_probs, (stem_mean, stem_var))] = served
                np.testing.assert_array_equal(probs, expected)
                np.testing.assert_array_equal(served_probs, expected)
                np.testing.assert_array_equal(stem_mean, stats_expected.stem_mean)
                np.testing.assert_array_equal(stem_var, stats_expected.stem_var)
        telem = controller.telemetry
        # both kinds of freeze, with no rescue (which binds the zero offset)
        assert telem.shifts_detected >= 1 and telem.rescue_forwards == 0
        assert telem.stops >= 1 and telem.bank_hits >= 1
        assert len(binds) == telem.stops + telem.bank_hits
        assert frozen == telem.frozen_batches > 0

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
        served_clean = [clean.process_batch(batch) for batch in batches]
        assert clean.telemetry.shifts_detected >= 1
        # finite, so both pass validation: at 1e307 the stem mean overflows and
        # shift_score's check of the batch side, the only one, rejects it (nan
        # score); at 1e160 the stem statistics are finite and the score is inf
        for value, score_is_nan in ((1e307, True), (1e160, False)):
            hit = PaceController(model, stats, controller_cfg)
            injected = False
            for batch, (probs_clean, report_clean) in zip(batches, served_clean):
                if hit.mode == FROZEN and not injected:
                    ema_before = hit.ema
                    bad = batch.copy()
                    bad[:, 0] = value
                    _, report = hit.process_batch(bad)
                    assert report.mode == FROZEN and not report.shift_detected
                    assert not np.isfinite(report.shift_score)
                    assert np.isnan(report.shift_score) == score_is_nan
                    assert hit.ema is ema_before  # not blended, not replaced
                    assert hit.telemetry.identity_holds(controller_cfg.population_size)
                    injected = True
                probs, report = hit.process_batch(batch)
                np.testing.assert_array_equal(probs, probs_clean)
                assert report.batch_index == report_clean.batch_index + injected
                np.testing.assert_equal(
                    {**vars(report), "batch_index": 0}, {**vars(report_clean), "batch_index": 0}
                )
            assert injected
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
        cfg = replace(config, epsilon=0.0)
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


class TestDetectorReference:
    """The EMA is scored as a reference built when it is set, never a stale one."""

    @pytest.mark.parametrize("method", ["pace", "pace-v1", "pace-v2", "pace-v3"])
    def test_each_score_is_a_fresh_score_against_the_ema_before_the_batch(
        self, standard_assets, method
    ):
        config, model, stats, gamma = standard_assets
        config = replace(config, method=method, rounds=3)
        controller_cfg = controller_config_for_method(config, gamma)
        controller = PaceController(model, stats, controller_cfg)
        scored = 0
        for batch in generate_stream(config.stream_config()):
            ema = controller.ema
            plain = None if ema is None else EmaStats(ema.mean.copy(), ema.var.copy())
            _, report = controller.process_batch(batch.features)
            batch_stats = EmaStats(*model.stem_moments(batch.features))
            if plain is None:
                assert np.isnan(report.shift_score)
                expected = batch_stats
            else:
                assert report.shift_score == _closed_form_score(plain, batch_stats)
                assert report.shift_score == shift_score(plain, batch_stats)
                scored += 1
                if report.shift_detected:
                    expected = batch_stats
                elif report.mode == ADAPTING:
                    expected = update_ema(plain, batch_stats, controller_cfg.beta)
                else:
                    expected = plain
            # the EMA the next batch is scored against, and its floor, are up to date
            ema = controller.ema
            assert isinstance(ema, EmaReference)
            np.testing.assert_array_equal(ema.mean, expected.mean)
            np.testing.assert_array_equal(ema.var, expected.var)
            np.testing.assert_array_equal(ema.floored, np.maximum(expected.var, VARIANCE_FLOOR))
        assert scored == controller.telemetry.batches - 1 == 3 * 400 - 1

    def test_a_plain_ema_assigned_is_scored_on_the_next_batch(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        stream_cfg = _stream_config([DomainSpec("feature_scale", 1.8, 120)], seed=3)
        batches = (batch.features for batch in generate_stream(stream_cfg))
        while controller.mode != FROZEN:
            controller.process_batch(next(batches))
        plain = EmaStats(controller.ema.mean + 0.25, controller.ema.var * 1.5)
        controller.ema = plain
        assert isinstance(controller.ema, EmaReference) and controller.ema is not plain
        batch = next(batches)
        expected = _closed_form_score(
            EmaStats(plain.mean.copy(), plain.var.copy()), EmaStats(*model.stem_moments(batch))
        )
        plain.mean[:] = 0.0  # the controller holds a copy
        _, report = controller.process_batch(batch)
        assert report.mode == FROZEN
        assert report.shift_score == expected

    def test_frozen_batches_build_no_reference(self, adapted_setup, monkeypatch):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        built = []
        build = EmaReference.__post_init__

        def counted(self):
            built.append(self)
            build(self)

        monkeypatch.setattr(EmaReference, "__post_init__", counted)
        stream_cfg = _stream_config([DomainSpec("feature_scale", 1.8, 150)], seed=5)
        batches = (batch.features for batch in generate_stream(stream_cfg))
        while controller.mode != FROZEN:
            controller.process_batch(next(batches))
        assert built  # one per blend while adapting
        built.clear()
        for _ in range(50):
            _, report = controller.process_batch(next(batches))
            assert report.mode == FROZEN and not report.shift_detected
            assert np.isfinite(report.shift_score)
        assert built == []


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


# two domains the detector tells apart at every boundary of a seed-3 stream
DOMAIN_A, DOMAIN_B = DomainSpec("feature_scale", 1.8, 60), DomainSpec("feature_scale", 0.4, 60)


def _serve_recording_shifts(controller, stream_cfg):
    """Serve the stream; record, for each shift, the bank and search state before it.

    ``from_bank`` is whether the search that the shift ends started from a
    bank entry, ``hit`` whether the shift's own retrieval returned one, and
    ``mode_after`` and ``mean_after`` the state the shift left.
    """
    retrieve, retrievals = controller.bank.retrieve_init, []

    def recorded_retrieve(*args):
        retrievals.append(retrieve(*args))
        return retrievals[-1]

    controller.bank.retrieve_init = recorded_retrieve
    shifts = []
    for batch in generate_stream(stream_cfg):
        mean = controller.cmaes_state.mean.copy()
        bank = [v.copy() for v in controller.bank.vectors]
        from_bank = controller.from_bank
        _, report = controller.process_batch(batch.features)
        if report.shift_detected:
            shifts.append(
                dict(
                    from_bank=from_bank,
                    mean_before=mean,
                    bank_before=bank,
                    bank_after=[v.copy() for v in controller.bank.vectors],
                    hit=retrievals[-1].slot is not None,
                    retrieval=retrievals[-1],
                    report=report,
                    mode_after=controller.mode,
                    mean_after=controller.cmaes_state.mean.copy(),
                )
            )
            assert controller.from_bank == shifts[-1]["hit"]
    return shifts


class TestHitFreezeBank:
    """A bank hit is served frozen; only a search started from zero is stored."""

    def test_a_hit_freezes_at_once(self, adapted_setup, monkeypatch):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        batches = list(generate_stream(_stream_config([DOMAIN_A, DOMAIN_B, DOMAIN_A], seed=3)))
        for batch in batches[:120]:
            controller.process_batch(batch.features)
        # A's and B's episodes started from zero, stopped and froze
        assert controller.mode == FROZEN and controller.bank.count == 1
        assert controller.telemetry.bank_hits == 0
        bind, binds = pace.model.AdaptableModel.bind, []

        def counted_bind(self, offset):
            binds.append(offset)
            return bind(self, offset)

        monkeypatch.setattr(pace.model.AdaptableModel, "bind", counted_bind)
        stops = controller.telemetry.stops
        _, report = controller.process_batch(batches[120].features)
        # B's mean is archived, and A's entry wins on an A batch
        assert report.shift_detected and controller.bank.count == 2
        assert report.forward_passes == 1 + 3  # the frozen serve, then 2 entries and zero
        assert controller.telemetry.bank_hits == 1 and controller.telemetry.stops == stops
        assert controller.mode == FROZEN and len(binds) == 1
        a_entry = controller.bank.vectors[0]
        np.testing.assert_array_equal(controller.cmaes_state.mean, a_entry)
        expected = controller.projector.project(a_entry)
        np.testing.assert_array_equal(controller.frozen_offset, expected)
        assert binds[0] is controller.frozen_offset
        _, report = controller.process_batch(batches[121].features)
        assert report.mode == FROZEN and report.forward_passes == 1 and len(binds) == 1
        assert controller.telemetry.identity_holds(config.population_size)

    def test_a_shift_seen_while_adapting_archives_retrieves_and_freezes(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        # B is too short for its episode to stop: the return to A comes while adapting
        specs = [DOMAIN_A, DomainSpec("feature_scale", 0.4, 5), DOMAIN_A]
        shifts = _serve_recording_shifts(controller, _stream_config(specs, seed=7))
        assert [s["report"].batch_index for s in shifts] == [60, 65]
        shift = shifts[1]
        report, retrieval = shift["report"], shift["retrieval"]
        assert report.mode == ADAPTING and report.shift_detected
        # B's episode started from zero, so its mean is archived next to A's entry
        assert not shift["from_bank"]
        expected_bank = shift["bank_before"] + [shift["mean_before"]]
        np.testing.assert_array_equal(shift["bank_after"], expected_bank)
        # no CMA-ES update ran: the search mean is the retrieval winner, A's entry
        assert retrieval.slot == 0 and np.isnan(report.rel_mean_change)
        np.testing.assert_array_equal(shift["mean_after"], retrieval.vector)
        np.testing.assert_array_equal(shift["mean_after"], shift["bank_before"][0])
        # the hit freezes at once, bound to the winner, for the rest of the stream
        assert shift["hit"] and shift["mode_after"] == FROZEN
        expected_offset = controller.projector.project(retrieval.vector)
        np.testing.assert_array_equal(controller.frozen_offset, expected_offset)
        assert report.forward_passes == config.population_size + retrieval.forward_passes == 6 + 3
        telem = controller.telemetry
        assert telem.stops == 1 and telem.bank_hits == 1 and controller.bank.count == 2
        assert telem.identity_holds(config.population_size)

    @pytest.mark.parametrize("seed", [3, 13])
    def test_only_a_search_started_from_zero_is_archived(self, adapted_setup, seed):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        shifts = _serve_recording_shifts(
            controller, _stream_config([DOMAIN_A, DOMAIN_B] * 3, seed=seed)
        )
        assert any(s["from_bank"] for s in shifts) and not all(s["from_bank"] for s in shifts)
        for shift in shifts:
            expected = list(shift["bank_before"])
            if not shift["from_bank"]:
                expected.append(shift["mean_before"])  # capacity 5: no eviction
            np.testing.assert_array_equal(shift["bank_after"], expected)
            # a hit freezes, the zero vector restarts the search
            assert shift["mode_after"] == (FROZEN if shift["hit"] else ADAPTING)
        telem = controller.telemetry
        assert telem.bank_hits == sum(s["hit"] for s in shifts) > 0
        assert controller.bank.count == sum(not s["from_bank"] for s in shifts)

    def test_epsilon_zero_adapts_from_a_hit_and_stores_nothing(self, adapted_setup):
        model, stats, config = adapted_setup
        cfg = replace(config, epsilon=0.0)
        controller = PaceController(model, stats, cfg)
        shifts = _serve_recording_shifts(
            controller, _stream_config([DOMAIN_A, DOMAIN_B] * 3, seed=3)
        )
        assert controller.telemetry.bank_hits == sum(s["hit"] for s in shifts) > 0
        for shift in shifts:
            assert shift["report"].mode == shift["mode_after"] == ADAPTING
            # the search restarts from the winner, a stored entry or zero
            np.testing.assert_array_equal(shift["mean_after"], shift["retrieval"].vector)
            if shift["from_bank"]:
                np.testing.assert_array_equal(shift["bank_after"], shift["bank_before"])
        assert any(s["from_bank"] for s in shifts)
        assert controller.mode == ADAPTING and controller.telemetry.stops == 0
        assert controller.telemetry.frozen_batches == 0

    def test_each_freeze_binds_once_on_the_8_round_stream(self, standard_assets, monkeypatch):
        config, model, stats, gamma = standard_assets
        config = replace(config, rounds=8)
        controller = PaceController(model, stats, controller_config_for_method(config, gamma))
        archive, retrieve = controller.bank.archive, controller.bank.retrieve_init
        archives, candidates = [], []
        controller.bank.archive = lambda m: archives.append(1) or archive(m)

        def counted_retrieve(*args):
            candidates.append(controller.bank.count + 1)
            return retrieve(*args)

        controller.bank.retrieve_init = counted_retrieve
        bind, binds = model.bind, []
        monkeypatch.setattr(model, "bind", lambda offset: binds.append(1) or bind(offset))
        for batch in generate_stream(config.stream_config()):
            controller.process_batch(batch.features)
        telem = controller.telemetry
        # the telemetry alone tells a freeze at a stop from one at a hit
        assert len(binds) == telem.stops + telem.bank_hits
        assert telem.bank_hits > telem.stops > 0
        # a shift archives unless the search it ends started from a hit
        assert telem.shifts_detected == len(archives) + telem.bank_hits - controller.from_bank
        # each shift's retrieval scores the bank and the zero vector
        assert telem.retrieval_forwards == sum(candidates)
        assert len(candidates) == telem.shifts_detected
        # an appending bank holds one entry per shift so far, up to capacity
        appending = sum(min(k, config.bank_capacity) + 1 for k in range(1, len(candidates) + 1))
        assert telem.retrieval_forwards <= 0.3 * appending
        assert telem.identity_holds(controller.config.population_size)


class TestWriteBackBank:
    """What shifts write back into the bank: one entry per recurring domain, none at capacity 0."""

    def test_recurring_two_domain_stream_keeps_two_entries(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, config)
        counts, adapted = [], [0, 0, 0]
        for batch in generate_stream(_stream_config([DOMAIN_A, DOMAIN_B] * 3, seed=3)):
            _, report = controller.process_batch(batch.features)
            counts.append(controller.bank.count)
            adapted[batch.index // 120] += report.mode == ADAPTING
        # A's episode is archived at the first B batch and B's at the second
        # A batch; from then on every shift hits and stores nothing
        assert counts[:60] == [0] * 60 and counts[60:120] == [1] * 60
        assert counts[120:] == [2] * 240
        assert adapted[0] > 0 and adapted[1] < adapted[0] and adapted[2] < adapted[0]
        telem = controller.telemetry
        assert telem.shifts_detected >= 5 and telem.bank_hits == telem.shifts_detected - 1

    def test_zero_capacity_never_writes_back(self, adapted_setup):
        model, stats, config = adapted_setup
        controller = PaceController(model, stats, replace(config, bank_capacity=0))
        shifts = _serve_recording_shifts(
            controller, _stream_config([DOMAIN_A, DOMAIN_B] * 3, seed=3)
        )
        assert len(shifts) >= 5
        assert not any(s["hit"] or s["from_bank"] for s in shifts)
        assert controller.telemetry.bank_hits == 0 and controller.bank.count == 0
