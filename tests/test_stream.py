from __future__ import annotations

import numpy as np
import pytest

from pace.bench.stream import (
    _RING_BASE,
    _RING_GAP,
    _RING_STD,
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
        with pytest.raises(ValueError, match="unknown corruption"):
            DomainSpec("blur", 1.0, 10)

    def test_bad_severity_and_counts(self):
        with pytest.raises(ValueError, match="severity"):
            DomainSpec("gauss_noise", 0.0, 10)
        with pytest.raises(ValueError, match="severity"):
            DomainSpec("feature_scale", np.inf, 10)
        with pytest.raises(ValueError, match="batch_count"):
            DomainSpec("gauss_noise", 1.0, 0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            StreamConfig(domain_sequence=())

    def test_unknown_base_task_rejected(self):
        with pytest.raises(ValueError, match="base task"):
            config([DomainSpec("gauss_noise", 1.0, 1)], base_task="spirals")


class TestParsing:
    def test_round_trip(self):
        text = "gauss_noise:1.5:100,feature_scale:2:50"
        seq = parse_domain_sequence(text)
        assert seq == (
            DomainSpec("gauss_noise", 1.5, 100),
            DomainSpec("feature_scale", 2.0, 50),
        )
        assert parse_domain_sequence(format_domain_sequence(seq)) == seq

    def test_bad_format(self):
        with pytest.raises(ValueError, match="kind:severity:count"):
            parse_domain_sequence("gauss_noise:1.5")


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        cfg = config(
            [DomainSpec("gauss_noise", 1.0, 3), DomainSpec("mask", 0.5, 3)], seed=5
        )
        a = list(generate_stream(cfg))
        b = list(generate_stream(cfg))
        for batch_a, batch_b in zip(a, b):
            np.testing.assert_array_equal(batch_a.features, batch_b.features)
            np.testing.assert_array_equal(batch_a.labels, batch_b.labels)
            assert batch_a.domain_id == batch_b.domain_id

    def test_different_seeds_differ(self):
        specs = [DomainSpec("gauss_noise", 1.0, 2)]
        a = list(generate_stream(config(specs, seed=1)))
        b = list(generate_stream(config(specs, seed=2)))
        assert not np.array_equal(a[0].features, b[0].features)


class TestStructure:
    def test_rounds_repeat_domain_ids_with_period(self):
        specs = [
            DomainSpec("gauss_noise", 1.0, 2),
            DomainSpec("feature_scale", 2.0, 3),
            DomainSpec("rotation", 0.4, 1),
            DomainSpec("mask", 0.5, 2),
        ]
        cfg = config(specs, rounds=5)
        batches = list(generate_stream(cfg))
        assert len(batches) == 5 * (2 + 3 + 1 + 2)
        assert cfg.total_batches == len(batches)
        expected_ids = ([0] * 2 + [1] * 3 + [2] * 1 + [3] * 2) * 5
        assert [b.domain_id for b in batches] == expected_ids
        assert [b.index for b in batches] == list(range(len(batches)))

    def test_batch_shapes_and_label_ranges(self):
        cfg = config([DomainSpec("gauss_noise", 1.0, 2)])
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

    def test_rotation_preserves_norms(self):
        specs = [DomainSpec("rotation", 0.7, 1)]
        cfg = config(specs, seed=2)
        batch = next(iter(generate_stream(cfg)))
        clean = self._clean_batch(cfg)
        np.testing.assert_allclose(
            np.linalg.norm(batch.features, axis=1),
            np.linalg.norm(clean, axis=1),
            atol=1e-10,
        )

    def test_mask_zeroes_fixed_subset_stable_across_rounds(self):
        specs = [DomainSpec("mask", 0.5, 2)]
        cfg = config(specs, in_dim=8, rounds=3, seed=4)
        batches = list(generate_stream(cfg))
        masked_cols = np.where(np.all(batches[0].features == 0.0, axis=0))[0]
        assert len(masked_cols) == 4  # round(0.5 * 8)
        for batch in batches[1:]:
            np.testing.assert_array_equal(batch.features[:, masked_cols], 0.0)

    def test_gauss_noise_changes_samples(self):
        specs = [DomainSpec("gauss_noise", 1.0, 1)]
        cfg = config(specs, seed=5)
        batch = next(iter(generate_stream(cfg)))
        clean = make_source_batches(cfg, 16, 16)[0][0]
        assert not np.allclose(batch.features, clean)


class TestTasks:
    def test_rings_labels_match_radius_bands(self):
        cfg = config(
            [DomainSpec("feature_scale", 1.0, 4)],
            base_task="rings",
            class_count=4,
            in_dim=3,
        )
        for batch in generate_stream(cfg):
            radii = np.linalg.norm(batch.features, axis=1)
            expected = _RING_BASE + _RING_GAP * batch.labels
            assert np.all(np.abs(radii - expected) < 5 * _RING_STD)

    def test_two_dim_blob_centers_equally_spaced(self):
        from pace.bench.stream import _task_centers

        cfg = config([DomainSpec("gauss_noise", 1.0, 1)])
        centers = _task_centers(cfg)
        shifted = centers - centers.mean(axis=0)
        radii = np.linalg.norm(shifted, axis=1)
        np.testing.assert_allclose(radii, radii[0], rtol=1e-6)

    def test_source_batches_cover_requested_samples(self):
        cfg = config([DomainSpec("gauss_noise", 1.0, 1)])
        batches = make_source_batches(cfg, 100, 16)
        assert sum(len(b[0]) for b in batches) == 100
