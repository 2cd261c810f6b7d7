from __future__ import annotations

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from pace.bench.run import (
    CSV_COLUMNS,
    prepare_assets,
    RunConfig,
    RunReport,
    compare,
    controller_config_for_method,
    load_summary,
    run_prepared,
    standard_domain_sequence,
)
from pace.bench.stream import StreamBatch, generate_stream, make_source_batches
from pace.controller import PaceController, Telemetry


@pytest.fixture(scope="module")
def fast_config(standard_assets):
    config, _, _, _ = standard_assets
    return replace(
        config,
        domain_sequence="feature_scale:2.2:12,feature_scale:0.45:12",
        train_epochs=10,
    )


class TestRunConfig:
    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # comment line
            method = pace-v2
            seed = 7
            epsilon = 0.08   # inline comment
            gamma = auto
            domain_sequence = feature_scale:2:5,feature_scale:0.5:5
            batch_size = 32
            """
        )
        config = RunConfig.from_file(path)
        assert config.method == "pace-v2"
        assert config.seed == 7
        assert config.epsilon == 0.08
        assert config.gamma is None
        assert config.batch_size == 32
        assert len(config.stream_config().domain_sequence) == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize(
        "first, second, key",
        [
            ("seed = 1", "seed = 2", "seed"),
            ("bank-capacity = 3", "bank_capacity = 4", "bank_capacity"),
        ],
        ids=["seed", "dash-and-underscore"],
    )
    def test_key_set_twice_rejected_naming_both_lines(self, tmp_path, first, second, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{first}\n# a comment\n{second}\n")
        with pytest.raises(ValueError, match=rf"run\.cfg:3: {key} is already set on line 1$"):
            RunConfig.from_file(path)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            RunConfig(method="tent")

    def test_fingerprint_ignores_method_but_not_stream(self):
        a = RunConfig(method="pace", seed=0)
        b = RunConfig(method="noadapt", seed=0)
        c = RunConfig(method="pace", seed=1)
        d = RunConfig(method="pace", seed=0, batch_size=32)
        assert a.stream_fingerprint() == b.stream_fingerprint()
        assert a.stream_fingerprint() != c.stream_fingerprint()
        assert a.stream_fingerprint() != d.stream_fingerprint()
        # a severity that 6 significant digits round to 1 is still another stream
        e = RunConfig(domain_sequence="feature_scale:1.0000001:5")
        f = RunConfig(domain_sequence="feature_scale:1:5")
        assert e.stream_fingerprint() != f.stream_fingerprint()

    def test_always_and_v1_presets_share_one_configuration(self):
        always = controller_config_for_method(RunConfig(method="pace-always"), gamma=0.1)
        v1 = controller_config_for_method(RunConfig(method="pace-v1"), gamma=0.1)
        assert always == v1 and always.epsilon == 0.0 and always.gamma == np.inf

    @pytest.mark.parametrize(
        "method, differences",
        [
            ("pace", {}),
            ("pace-always", dict(epsilon=0.0, gamma=np.inf)),
            ("pace-v1", dict(epsilon=0.0, gamma=np.inf)),
            ("pace-v2", dict(epsilon=0.0)),
            ("pace-v3", dict(bank_capacity=0)),
        ],
    )
    def test_presets_differ_from_pace_only_in_epsilon_gamma_and_capacity(
        self, method, differences
    ):
        config = RunConfig(epsilon=0.07, bank_capacity=9, seed=3)
        pace = controller_config_for_method(config, gamma=0.2)
        preset = controller_config_for_method(replace(config, method=method), gamma=0.2)
        assert preset == replace(pace, **differences)

    def test_standard_sequence_is_four_domains(self):
        seq = standard_domain_sequence()
        assert len(seq) == 4
        assert all(d.batch_count == 100 for d in seq)


class TestRun:
    def test_noadapt_on_identity_stream_matches_clean_accuracy(self, standard_assets):
        config, model, stats, gamma = standard_assets
        identity = replace(
            config, method="noadapt", domain_sequence="feature_scale:1.0:100"
        )
        report = run_prepared(identity, model, stats, gamma)
        clean_batches = make_source_batches(identity.stream_config(), 6400, 64, tag=4)
        zero = model.bind(model.zero_offset())
        clean_acc = 100 * np.mean(
            [np.mean(np.argmax(model.serve(zero, X)[0], axis=1) == y) for X, y in clean_batches]
        )
        assert abs(report.overall_accuracy - clean_acc) <= 1.5
        assert report.adapted_fraction == 0.0
        assert report.total_forward_passes == 100

    def test_infinite_epsilon_degenerates_to_noadapt(self, standard_assets):
        config, model, stats, gamma = standard_assets
        stream = "feature_scale:1.0:60"
        base = replace(config, method="noadapt", domain_sequence=stream)
        degenerate = replace(
            config, method="pace", epsilon=np.inf, domain_sequence=stream
        )
        rep_no = run_prepared(base, model, stats, gamma)
        rep_inf = run_prepared(degenerate, model, stats, gamma)
        # the origin guard forces one extra adapting batch after the first
        adapted = rep_inf.adapted_fraction * 60
        assert adapted <= 2
        assert abs(rep_inf.overall_accuracy - rep_no.overall_accuracy) <= 2.0

    def test_infinite_gamma_scores_every_batch_and_never_detects(self, standard_assets):
        config, model, stats, gamma = standard_assets
        controller_cfg = controller_config_for_method(replace(config, method="pace-v1"), gamma)
        controller = PaceController(model, stats, controller_cfg)
        scores = []
        for batch in generate_stream(config.stream_config()):
            _, report = controller.process_batch(batch.features)
            assert not report.shift_detected
            scores.append(report.shift_score)
        telem = controller.telemetry
        assert telem.shifts_detected == 0 and telem.retrieval_forwards == 0
        assert controller.bank.count == 0 and telem.bank_hits == 0
        # the detector still scores: every batch but the first, some above the calibrated gamma
        assert np.isnan(scores[0]) and np.isfinite(scores[1:]).all()
        assert max(scores[1:]) > gamma

    def test_reports_are_deterministic(self, standard_assets, fast_config):
        _, model, stats, gamma = standard_assets
        a = run_prepared(replace(fast_config, method="pace"), model, stats, gamma)
        b = run_prepared(replace(fast_config, method="pace"), model, stats, gamma)
        assert a.overall_accuracy == b.overall_accuracy
        assert a.total_forward_passes == b.total_forward_passes
        assert a.per_domain_accuracy == b.per_domain_accuracy

    def test_identity_enforced_and_reported(self, standard_assets, fast_config, monkeypatch):
        _, model, stats, gamma = standard_assets
        report = run_prepared(replace(fast_config, method="pace"), model, stats, gamma)
        assert report.identity_ok
        monkeypatch.setattr(Telemetry, "identity_holds", lambda self, population_size: False)
        with pytest.raises(RuntimeError, match="identity violated"):
            run_prepared(replace(fast_config, method="pace"), model, stats, gamma)

    def test_outputs_written(self, standard_assets, fast_config, tmp_path):
        _, model, stats, gamma = standard_assets
        out = tmp_path / "out"
        config = replace(fast_config, method="pace", out_dir=str(out))
        report = run_prepared(config, model, stats, gamma)
        with open(out / "batches.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert len(rows) == 24
        summary = json.loads((out / "summary.json").read_text())
        for key in (
            "schema_version",
            "method",
            "seed",
            "stream_fingerprint",
            "gamma",
            "overall_accuracy",
            "per_domain_accuracy",
            "per_round_accuracy",
            "adapted_fraction",
            "adapted_batches_per_round",
            "total_forward_passes",
            "identity_ok",
            "wall_seconds",
            "telemetry",
            "config",
        ):
            assert key in summary
        assert summary["schema_version"] == 1
        loaded = load_summary(out / "summary.json")
        assert loaded.overall_accuracy == report.overall_accuracy
        assert sorted(path.name for path in out.iterdir()) == ["batches.csv", "summary.json"]

    def test_accuracy_column_matches_labels(self, standard_assets, fast_config):
        _, model, stats, gamma = standard_assets
        config = replace(fast_config, method="noadapt")
        report = run_prepared(config, model, stats, gamma)
        stream = list(generate_stream(config.stream_config()))
        zero = model.zero_offset()
        for row, batch in zip(report.batches, stream):
            probs = model.forward(zero, batch.features)[0]
            acc = 100 * np.mean(np.argmax(probs, axis=1) == batch.labels)
            assert row["accuracy_if_labels_available"] == pytest.approx(acc)


class TestCompare:
    def test_self_comparison_is_all_zeros(self, standard_assets, fast_config):
        _, model, stats, gamma = standard_assets
        report = run_prepared(replace(fast_config, method="noadapt"), model, stats, gamma)
        delta = compare(report, report)
        assert delta["overall_accuracy_delta"] == 0.0
        assert all(v == 0.0 for v in delta["per_domain_accuracy_delta"].values())
        assert delta["adapted_fraction_delta"] == 0.0
        assert delta["forward_passes_delta"] == 0

    def test_adaptation_beats_noadapt(self, standard_assets, fast_config):
        _, model, stats, gamma = standard_assets
        config = replace(fast_config, domain_sequence="feature_scale:2.2:60")
        rep_no = run_prepared(replace(config, method="noadapt"), model, stats, gamma)
        rep_pace = run_prepared(replace(config, method="pace"), model, stats, gamma)
        delta = compare(rep_no, rep_pace)
        assert delta["overall_accuracy_delta"] > 0

    def test_mismatched_fingerprints_rejected(self, standard_assets, fast_config):
        _, model, stats, gamma = standard_assets
        rep_a = run_prepared(replace(fast_config, method="noadapt"), model, stats, gamma)
        other = replace(fast_config, method="noadapt", seed=fast_config.seed + 1)
        rep_b = run_prepared(other, model, stats, gamma)
        with pytest.raises(ValueError, match="fingerprints"):
            compare(rep_a, rep_b)


class _Poison:
    """Raises on any use; proves a value is never consumed."""

    def __getattr__(self, name):
        raise AssertionError("evaluation-only data reached the adaptation path")

    def __iter__(self):
        raise AssertionError("evaluation-only data reached the adaptation path")

    def __array__(self, *args, **kwargs):
        raise AssertionError("evaluation-only data reached the adaptation path")

    def __eq__(self, other):
        raise AssertionError("evaluation-only data reached the adaptation path")


class _Tainted(np.ndarray):
    """ndarray subclass that propagates through numpy operations."""


def _taint(arr: np.ndarray) -> np.ndarray:
    return arr.view(_Tainted)


class TestEvaluationIsolation:
    def test_controller_never_consumes_labels_or_domain_ids(self, standard_assets):
        # labels/domain ids are poisoned: any touch inside the adaptation
        # path raises; the controller must run the full stream untouched
        from pace.controller import PaceController, ControllerConfig

        config, model, stats, gamma = standard_assets
        controller = PaceController(
            model,
            stats,
            ControllerConfig(dim=16, population_size=4, gamma=gamma, seed=0),
        )
        stream_cfg = replace(
            config, domain_sequence="feature_scale:2.2:6,feature_scale:0.45:6"
        ).stream_config()
        for batch in generate_stream(stream_cfg):
            poisoned = StreamBatch(
                features=batch.features,
                labels=_Poison(),
                domain_id=_Poison(),
                index=batch.index,
            )
            probs, _ = controller.process_batch(poisoned.features)
            assert probs.shape[0] == batch.features.shape[0]

    def test_label_taint_never_reaches_adaptation_state(self, standard_assets):
        from pace.controller import PaceController, ControllerConfig

        config, model, stats, gamma = standard_assets
        controller = PaceController(
            model,
            stats,
            ControllerConfig(dim=16, population_size=4, gamma=gamma, seed=0),
        )
        stream_cfg = replace(
            config, domain_sequence="feature_scale:2.2:8"
        ).stream_config()
        for batch in generate_stream(stream_cfg):
            labels = _taint(batch.labels)
            probs, _ = controller.process_batch(batch.features)
            assert not isinstance(probs, _Tainted)
            # metrics layer may use the tainted labels after the fact
            accuracy = float(np.mean(np.argmax(probs, axis=1) == labels))
            assert 0.0 <= accuracy <= 1.0
        assert not isinstance(controller.cmaes_state.mean, _Tainted)
        assert not isinstance(controller.ema.mean, _Tainted)
        for vec in controller.bank.vectors:
            assert not isinstance(vec, _Tainted)


class TestSummarySchema:
    def test_load_summary_restores_every_field_but_batches(
        self, standard_assets, fast_config, tmp_path
    ):
        _, model, stats, gamma = standard_assets
        config = replace(fast_config, method="pace", out_dir=str(tmp_path))
        report = run_prepared(config, model, stats, gamma)
        loaded = load_summary(tmp_path / "summary.json")
        assert loaded.batches == []
        assert replace(loaded, batches=report.batches) == report

    def test_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text('{"schema_version": 42}')
        with pytest.raises(ValueError, match="schema"):
            load_summary(path)


class TestOtherShape:
    def test_noadapt_runs_at_three_features_and_four_classes(self, standard_assets):
        config, _, _, _ = standard_assets
        shape = replace(
            config,
            method="noadapt",
            in_dim=3,
            class_count=4,
            domain_sequence="feature_scale:1.3:4",
            train_samples=1024,
            train_epochs=15,
            source_samples=512,
            gamma=1.0,
        )
        model, stats, gamma = prepare_assets(shape)
        report = run_prepared(shape, model, stats, gamma)
        assert report.overall_accuracy > 25.0  # above chance for 4 classes
        assert len(report.batches) == 4
