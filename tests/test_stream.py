from __future__ import annotations

import numpy as np
import pytest

from pace.bench.stream import (
    DomainSpec,
    StreamConfig,
    format_domain_sequence,
    generate_stream,
    make_source_batches,
    parse_domain_sequence,
)


def config(specs, **overrides):
    base = dict(
        base_task="blobs8",
        in_dim=2,
        class_count=8,
        batch_size=16,
        seed=0,
        blob_radius=4.0,
        blob_std=0.7,
        blob_center=2.5,
    )
    base.update(overrides)
    return StreamConfig(domain_sequence=tuple(specs), **base)


class TestValidation:
    def test_unknown_corruption_kind_rejected(self):
        for kind in ("blur", "gauss_noise", "rotation", "mask"):
            with pytest.raises(ValueError, match=f"unknown corruption kind: '{kind}'"):
                DomainSpec(kind, 1.0, 10)

    def test_bad_severity_and_counts(self):
        with pytest.raises(ValueError, match="severity"):
            DomainSpec("feature_scale", 0.0, 10)
        with pytest.raises(ValueError, match="severity"):
            DomainSpec("feature_scale", np.inf, 10)
        with pytest.raises(ValueError, match="batch_count"):
            DomainSpec("feature_scale", 1.0, 0)
        spec = [DomainSpec("feature_scale", 1.0, 1)]
        for name, value in [
            ("blob_radius", np.inf),
            ("blob_radius", np.nan),
            ("blob_radius", -1.0),
            ("blob_center", np.inf),
            ("blob_center", -np.inf),
            ("blob_center", np.nan),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be "):
                config(spec, **{name: value})

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            StreamConfig(domain_sequence=())

    def test_unknown_base_task_rejected(self):
        for task in ("spirals", "rings"):
            with pytest.raises(ValueError, match=f"unknown base task: '{task}'"):
                config([DomainSpec("feature_scale", 1.0, 1)], base_task=task)


class TestParsing:
    def test_round_trip(self):
        text = "feature_scale:1.5:100,feature_scale:2:50"
        seq = parse_domain_sequence(text)
        assert seq == (
            DomainSpec("feature_scale", 1.5, 100),
            DomainSpec("feature_scale", 2.0, 50),
        )
        assert parse_domain_sequence(format_domain_sequence(seq)) == seq
        # exact severities keep the short form that existing fingerprints hash
        assert format_domain_sequence(seq) == text
        # severities that 6 significant digits would round
        for severity in (1.0000001, 1.23456789, 1e-7, 1e20):
            seq = (DomainSpec("feature_scale", severity, 3),)
            assert parse_domain_sequence(format_domain_sequence(seq)) == seq

    def test_bad_format(self):
        with pytest.raises(ValueError, match="kind:severity:count"):
            parse_domain_sequence("feature_scale:1.5")

    @pytest.mark.parametrize("text", ["", ",", " , ,"], ids=["empty", "comma", "blanks"])
    def test_blank_specs_are_an_empty_sequence(self, text):
        with pytest.raises(ValueError, match="domain sequence is empty"):
            parse_domain_sequence(text)


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        cfg = config(
            [DomainSpec("feature_scale", 1.0, 3), DomainSpec("feature_scale", 0.5, 3)], seed=5
        )
        a = list(generate_stream(cfg))
        b = list(generate_stream(cfg))
        for batch_a, batch_b in zip(a, b):
            np.testing.assert_array_equal(batch_a.features, batch_b.features)
            np.testing.assert_array_equal(batch_a.labels, batch_b.labels)
            assert batch_a.domain_id == batch_b.domain_id

    def test_different_seeds_differ(self):
        specs = [DomainSpec("feature_scale", 1.0, 2)]
        a = list(generate_stream(config(specs, seed=1)))
        b = list(generate_stream(config(specs, seed=2)))
        assert not np.array_equal(a[0].features, b[0].features)


class TestStructure:
    def test_rounds_repeat_domain_ids_with_period(self):
        specs = [
            DomainSpec("feature_scale", 1.0, 2),
            DomainSpec("feature_scale", 2.0, 3),
            DomainSpec("feature_scale", 0.4, 1),
            DomainSpec("feature_scale", 0.5, 2),
        ]
        cfg = config(specs, rounds=5)
        batches = list(generate_stream(cfg))
        assert len(batches) == 5 * (2 + 3 + 1 + 2)
        assert cfg.total_batches == len(batches)
        expected_ids = ([0] * 2 + [1] * 3 + [2] * 1 + [3] * 2) * 5
        assert [b.domain_id for b in batches] == expected_ids
        assert [b.index for b in batches] == list(range(len(batches)))

    def test_batch_shapes_and_label_ranges(self):
        cfg = config([DomainSpec("feature_scale", 1.0, 2)])
        for batch in generate_stream(cfg):
            assert batch.features.shape == (16, 2)
            assert batch.labels.shape == (16,)
            assert batch.labels.min() >= 0 and batch.labels.max() < 8


class TestCorruptions:
    def test_feature_scale_identity_at_severity_one(self):
        specs = [DomainSpec("feature_scale", 1.0, 40)]
        corrupted = list(generate_stream(config(specs, seed=3)))
        # two-sample mean test against clean source draws from the same task
        clean = make_source_batches(config(specs, seed=3), 40 * 16, 16)
        corrupted_all = np.concatenate([b.features for b in corrupted])
        clean_all = np.concatenate([b[0] for b in clean])
        diff = corrupted_all.mean(axis=0) - clean_all.mean(axis=0)
        pooled_se = np.sqrt(
            corrupted_all.var(axis=0) / len(corrupted_all)
            + clean_all.var(axis=0) / len(clean_all)
        )
        assert np.all(np.abs(diff) < 4 * pooled_se)

    def _clean_batch(self, cfg):
        # reconstruct the clean draw behind the stream's first batch
        from pace.bench.stream import _TAG_BATCH, _rng, _sample_clean, _task_centers

        rng = _rng(cfg.seed, _TAG_BATCH, 0, 0, 0)
        return _sample_clean(cfg, rng, cfg.batch_size, _task_centers(cfg))[0]

    def test_feature_scale_alternating_pattern(self):
        specs = [DomainSpec("feature_scale", 2.0, 1)]
        cfg = config(specs, in_dim=4, seed=1)
        batch = next(iter(generate_stream(cfg)))
        clean = self._clean_batch(cfg)
        np.testing.assert_allclose(batch.features[:, 0], clean[:, 0] * 2.0, atol=1e-12)
        np.testing.assert_allclose(batch.features[:, 1], clean[:, 1] / 2.0, atol=1e-12)
        np.testing.assert_allclose(batch.features[:, 2], clean[:, 2] * 2.0, atol=1e-12)


class TestTasks:
    def test_two_dim_blob_centers_equally_spaced(self):
        from pace.bench.stream import _task_centers

        cfg = config([DomainSpec("feature_scale", 1.0, 1)])
        centers = _task_centers(cfg)
        shifted = centers - centers.mean(axis=0)
        radii = np.linalg.norm(shifted, axis=1)
        np.testing.assert_allclose(radii, radii[0], rtol=1e-6)

    def test_source_batches_cover_requested_samples(self):
        cfg = config([DomainSpec("feature_scale", 1.0, 1)])
        batches = make_source_batches(cfg, 100, 16)
        assert sum(len(b[0]) for b in batches) == 100

    @pytest.mark.parametrize(
        "n_samples, batch_size, setting",
        [
            (0, 16, "n_samples"),
            (-5, 16, "n_samples"),
            (10.0, 16, "n_samples"),
            (100, 0, "batch_size"),
            (100, -16, "batch_size"),
            (100, 2.5, "batch_size"),
        ],
    )
    def test_source_batch_counts_are_checked(self, n_samples, batch_size, setting):
        cfg = config([DomainSpec("feature_scale", 1.0, 1)])
        with pytest.raises(ValueError, match=f"^{setting} must be a positive integer"):
            make_source_batches(cfg, n_samples, batch_size)
