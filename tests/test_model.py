from __future__ import annotations

import numpy as np
import pytest

from pace.fitness import FitnessConfig, fitness
from pace.model import (
    AdaptableModel,
    ArchitectureConfig,
    _init_weights,
    _softmax,
    compute_source_stats,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def residual_model():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    cfg = ArchitectureConfig(kind="residual", in_dim=3, class_count=4, width=8, blocks=4)
    return AdaptableModel(cfg, _init_weights(cfg, rng))


@pytest.fixture(scope="module")
def mlp_model():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    cfg = ArchitectureConfig(kind="mlp", in_dim=3, class_count=4, width=8)
    return AdaptableModel(cfg, _init_weights(cfg, rng))


def _reference_train(model: AdaptableModel, X, onehot):
    """Logits and gradients, each architecture written out on its own in plain numpy.

    This is the per-architecture training code the single layer loop
    replaced, kept as the reference it must match bit for bit.
    """
    w = model.weights

    def layer_norm(z, layer):
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = (z - mu) * inv_std
        return xhat * w[f"{layer}.ln_scale"] + w[f"{layer}.ln_bias"], xhat, inv_std

    def layer_norm_backward(d_out, xhat, inv_std, layer):
        d_xhat = d_out * w[f"{layer}.ln_scale"]
        d_z = inv_std * (
            d_xhat
            - d_xhat.mean(axis=1, keepdims=True)
            - xhat * (d_xhat * xhat).mean(axis=1, keepdims=True)
        )
        return d_z, (d_out * xhat).sum(axis=0), d_out.sum(axis=0)

    grads = {}

    def layer_backward(layer, d_out, h_in, xhat, inv_std):
        """Fills the layer's gradients; returns the gradient of its input."""
        d_z, grads[f"{layer}.ln_scale"], grads[f"{layer}.ln_bias"] = layer_norm_backward(
            d_out, xhat, inv_std, layer
        )
        grads[f"{layer}.w"] = h_in.T @ d_z
        grads[f"{layer}.b"] = d_z.sum(axis=0)
        return d_z @ w[f"{layer}.w"].T

    cache = {}
    if model.config.kind == "mlp":
        h = X
        for layer in ("layer1", "layer2"):
            n, xhat, inv_std = layer_norm(h @ w[f"{layer}.w"] + w[f"{layer}.b"], layer)
            cache[layer] = (h, n, xhat, inv_std)
            h = np.maximum(n, 0.0)
        logits = h @ w["head.w"] + w["head.b"]
        d_logits = (_softmax(logits) - onehot) / X.shape[0]
        d_h = d_logits @ w["head.w"].T
        for layer in ("layer2", "layer1"):
            h_in, n, xhat, inv_std = cache[layer]
            d_h = layer_backward(layer, d_h * (n > 0), h_in, xhat, inv_std)
    else:
        blocks = [f"block{i}" for i in range(1, model.config.blocks + 1)]
        h, stem_xhat, stem_inv_std = layer_norm(X @ w["stem.w"] + w["stem.b"], "stem")
        for layer in blocks:
            n, xhat, inv_std = layer_norm(h @ w[f"{layer}.w"] + w[f"{layer}.b"], layer)
            cache[layer] = (h, n, xhat, inv_std)
            h = h + np.maximum(n, 0.0)
        logits = h @ w["head.w"] + w["head.b"]
        d_logits = (_softmax(logits) - onehot) / X.shape[0]
        d_h = d_logits @ w["head.w"].T
        for layer in reversed(blocks):
            h_in, n, xhat, inv_std = cache[layer]
            d_h = d_h + layer_backward(layer, d_h * (n > 0), h_in, xhat, inv_std)
        layer_backward("stem", d_h, X, stem_xhat, stem_inv_std)
    grads["head.w"] = h.T @ d_logits
    grads["head.b"] = d_logits.sum(axis=0)
    return logits, grads


def two_blob_data(n=600, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    centers = np.array([[-4.0, 0.0], [4.0, 0.0]])
    X = centers[y] + 0.5 * rng.standard_normal((n, 2))
    return X, y


class TestLayout:
    def test_residual_freezes_first_and_last_norms(self, residual_model):
        layers = {layer.name for layer in residual_model.layers if layer.adaptable}
        assert layers == {"block1", "block2", "block3"}
        assert residual_model.offset_dim == 3 * 2 * 8

    def test_mlp_adapts_both_norm_layers(self, mlp_model):
        layers = [layer.name for layer in mlp_model.layers if layer.adaptable]
        assert layers == ["layer1", "layer2"]
        assert mlp_model.offset_dim == 2 * 2 * 8

    def test_layer_lists(self):
        mlp = ArchitectureConfig(kind="mlp", in_dim=3, class_count=2, width=8).layers()
        assert [(x.name, x.fan_in, x.relu, x.skip, x.adaptable) for x in mlp] == [
            ("layer1", 3, True, False, True),
            ("layer2", 8, True, False, True),
        ]
        residual = ArchitectureConfig(
            kind="residual", in_dim=3, class_count=2, width=8, blocks=3
        ).layers()
        assert [(x.name, x.fan_in, x.relu, x.skip, x.adaptable) for x in residual] == [
            ("stem", 3, False, False, False),
            ("block1", 8, True, True, True),
            ("block2", 8, True, True, True),
            ("block3", 8, True, True, False),
        ]

    def test_block_and_stem_dimensions(self, residual_model, mlp_model):
        assert residual_model.block_count == 4
        assert mlp_model.block_count == 2

    def test_base_weights_immutable(self, mlp_model):
        with pytest.raises(ValueError):
            mlp_model.weights["head.w"][0, 0] = 99.0


class TestForward:
    def test_zero_offset_matches_unadapted_model_bit_exact(self, residual_model):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((16, 3))
        probs_a, _ = residual_model.forward(residual_model.zero_offset(), X)
        probs_b = residual_model.predict_proba(X)
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_deterministic(self, residual_model):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 3))
        offset = rng.standard_normal(residual_model.offset_dim) * 0.1
        a, stats_a = residual_model.forward(offset, X)
        b, stats_b = residual_model.forward(offset, X)
        np.testing.assert_array_equal(a, b)
        for ma, mb in zip(stats_a.means, stats_b.means):
            np.testing.assert_array_equal(ma, mb)

    def test_rows_are_probability_vectors(self, residual_model):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((32, 3))
        offset = 0.2 * rng.standard_normal(residual_model.offset_dim)
        probs, _ = residual_model.forward(offset, X)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_duplicated_sample_batch(self, residual_model):
        x = np.array([0.4, -1.0, 2.0])
        X = np.tile(x, (9, 1))
        probs, stats = residual_model.forward(residual_model.zero_offset(), X)
        for row in probs[1:]:
            np.testing.assert_array_equal(row, probs[0])
        np.testing.assert_allclose(stats.stem_var, 0.0, atol=1e-18)
        for sd in stats.stds:
            np.testing.assert_allclose(sd, 0.0, atol=1e-12)

    def test_rejects_non_finite_batch(self, residual_model):
        X = np.ones((4, 3))
        X[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            residual_model.forward(residual_model.zero_offset(), X)

    def test_rejects_empty_batch_and_bad_width(self, residual_model):
        with pytest.raises(ValueError, match="empty"):
            residual_model.forward(residual_model.zero_offset(), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="columns"):
            residual_model.forward(residual_model.zero_offset(), np.zeros((2, 5)))

    def test_rejects_wrong_offset_length(self, residual_model):
        with pytest.raises(ValueError, match="offset"):
            residual_model.forward(np.zeros(residual_model.offset_dim + 1), np.zeros((2, 3)))

    def test_extreme_offset_flagged_not_raised(self, residual_model):
        offset = np.full(residual_model.offset_dim, 1e308)
        X = np.ones((4, 3))
        probs, stats = residual_model.forward(offset, X)
        source = compute_source_stats(residual_model, [X])
        assert fitness(probs, stats, source, FitnessConfig(0.4)) == np.inf

    def test_offset_locality(self, residual_model):
        # offsets on block2 must not change block1 activations
        rng = np.random.default_rng(3)
        X = rng.standard_normal((8, 3))
        offset = np.zeros(residual_model.offset_dim)
        _, base = residual_model.forward(offset, X)
        adaptable = [layer.name for layer in residual_model.layers if layer.adaptable]
        w = residual_model.config.width
        start = 2 * w * adaptable.index("block2")  # its scale slice, then its bias slice
        offset[start : start + 2 * w] = rng.standard_normal(2 * w)
        _, shifted = residual_model.forward(offset, X)
        np.testing.assert_array_equal(shifted.means[0], base.means[0])
        assert not np.array_equal(shifted.means[1], base.means[1])
        np.testing.assert_array_equal(shifted.stem_mean, base.stem_mean)

    def test_stem_stats_invariant_to_any_offset(self, mlp_model):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 3))
        _, base = mlp_model.forward(mlp_model.zero_offset(), X)
        _, adapted = mlp_model.forward(0.5 * rng.standard_normal(mlp_model.offset_dim), X)
        np.testing.assert_array_equal(adapted.stem_mean, base.stem_mean)
        np.testing.assert_array_equal(adapted.stem_var, base.stem_var)


class TestSourceStats:
    def test_single_repeated_sample_gives_zero_std(self, mlp_model):
        X = np.tile([0.5, 1.0, -2.0], (20, 1))
        stats = compute_source_stats(mlp_model, [X])
        for sd in stats.stds:
            np.testing.assert_allclose(sd, 0.0, atol=1e-12)
        assert stats.sample_count == 20

    def test_streamed_halves_match_single_pass(self, mlp_model):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((400, 3))
        whole = compute_source_stats(mlp_model, [X])
        halves = compute_source_stats(mlp_model, [X[:200], X[200:]])
        for a, b in zip(whole.means, halves.means):
            np.testing.assert_allclose(a, b, atol=1e-8)
        for a, b in zip(whole.stds, halves.stds):
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_constant_input_propagates_analytically(self, mlp_model):
        # hand-propagate one linear + layernorm + relu layer for a constant batch
        x = np.array([1.0, -0.5, 2.0])
        X = np.tile(x, (7, 1))
        stats = compute_source_stats(mlp_model, [X])
        w = mlp_model.weights
        z = x @ w["layer1.w"] + w["layer1.b"]
        xhat = (z - z.mean()) / np.sqrt(z.var() + 1e-5)
        h1 = np.maximum(xhat * w["layer1.ln_scale"] + w["layer1.ln_bias"], 0.0)
        np.testing.assert_allclose(stats.means[0], h1, atol=1e-12)

    def test_empty_input_rejected(self, mlp_model):
        with pytest.raises(ValueError, match="at least one sample"):
            compute_source_stats(mlp_model, [])


class TestPretrain:
    def test_linearly_separable_two_blobs(self):
        X, y = two_blob_data()
        # nearest-centroid oracle (Bayes-optimal for equal spherical blobs)
        centers = np.stack([X[y == c].mean(axis=0) for c in (0, 1)])
        oracle = np.argmin(
            ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert np.mean(oracle == y) >= 0.99
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=16)
        model = pretrain(cfg, X, y, seed=0, epochs=30)
        assert np.mean(model.predict(X) == y) >= 0.99

    def test_fixed_seed_reproduces_weights(self):
        X, y = two_blob_data(n=256)
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=8)
        a = pretrain(cfg, X, y, seed=3, epochs=5)
        b = pretrain(cfg, X, y, seed=3, epochs=5)
        for key in a.weights:
            np.testing.assert_array_equal(a.weights[key], b.weights[key])

    def test_eight_class_blobs_mlp_reaches_golden_accuracy(self, standard_assets):
        config, model, _, _ = standard_assets
        from pace.bench.stream import make_source_batches

        batches = make_source_batches(config.stream_config(), 2048, 256, tag=1)
        X = np.concatenate([b[0] for b in batches])
        y = np.concatenate([b[1] for b in batches])
        assert np.mean(model.predict(X) == y) >= 0.90

    def test_residual_pretrains(self):
        X, y = two_blob_data(n=512)
        cfg = ArchitectureConfig(kind="residual", in_dim=2, class_count=2, width=16, blocks=4)
        model = pretrain(cfg, X, y, seed=0, epochs=20)
        assert np.mean(model.predict(X) == y) >= 0.95

    def test_label_validation(self):
        X, y = two_blob_data(n=64)
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=8)
        with pytest.raises(ValueError, match="labels"):
            pretrain(cfg, X, y + 5, seed=0, epochs=1)


class TestGradients:
    @pytest.mark.parametrize("kind", ["mlp", "residual"])
    def test_backprop_matches_finite_differences(self, kind):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
        cfg = ArchitectureConfig(kind=kind, in_dim=3, class_count=3, width=6, blocks=2)
        model = AdaptableModel(cfg, _init_weights(cfg, rng))
        model.weights = {k: v.copy() for k, v in model.weights.items()}
        X = rng.standard_normal((5, 3))
        y = np.array([0, 1, 2, 1, 0])
        onehot = np.eye(3)[y]

        def loss():
            logits, _ = model._forward_train(X)
            probs = _softmax(logits)
            return -np.mean(np.log(probs[np.arange(5), y]))

        logits, cache = model._forward_train(X)
        probs = _softmax(logits)
        grads = model._backward(cache, (probs - onehot) / 5)
        eps = 1e-6
        check = np.random.default_rng(0)
        for key in ("head.w", f"{'layer1' if kind == 'mlp' else 'stem'}.w",
                    f"{'layer2' if kind == 'mlp' else 'block1'}.ln_scale"):
            arr = model.weights[key]
            for _ in range(4):
                idx = tuple(check.integers(0, s) for s in arr.shape)
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss()
                arr[idx] = orig - eps
                down = loss()
                arr[idx] = orig
                fd = (up - down) / (2 * eps)
                assert grads[key][idx] == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("kind", ["mlp", "residual"])
    def test_layer_loop_matches_per_architecture_reference(self, kind):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
        cfg = ArchitectureConfig(kind=kind, in_dim=3, class_count=4, width=7, blocks=3)
        # perturb every weight so that scales, biases and ReLU masks all matter
        weights = {
            k: v + 0.3 * rng.standard_normal(v.shape)
            for k, v in _init_weights(cfg, rng).items()
        }
        model = AdaptableModel(cfg, weights)
        X = rng.standard_normal((11, 3))
        onehot = np.eye(4)[rng.integers(0, 4, 11)]
        ref_logits, ref_grads = _reference_train(model, X, onehot)
        logits, cache = model._forward_train(X)
        grads = model._backward(cache, (_softmax(logits) - onehot) / 11)
        np.testing.assert_array_equal(logits, ref_logits)
        assert set(grads) == set(ref_grads) == set(model.weights)
        for key, grad in grads.items():
            np.testing.assert_array_equal(grad, ref_grads[key], err_msg=key)


class TestCheckpoint:
    def test_round_trip_with_stats(self, tmp_path, mlp_model):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((64, 3))
        stats = compute_source_stats(mlp_model, [X])
        path = tmp_path / "model.npz"
        save_checkpoint(path, mlp_model, stats)
        loaded, loaded_stats = load_checkpoint(path)
        assert loaded.config == mlp_model.config
        for key in mlp_model.weights:
            np.testing.assert_array_equal(loaded.weights[key], mlp_model.weights[key])
        for a, b in zip(stats.means, loaded_stats.means):
            np.testing.assert_array_equal(a, b)
        assert loaded_stats.sample_count == 64
        probs_a = mlp_model.predict_proba(X)
        probs_b = loaded.predict_proba(X)
        np.testing.assert_array_equal(probs_a, probs_b)

    def test_loads_checkpoint_with_stem_statistics(self, tmp_path, mlp_model):
        # checkpoints once also stored source stem moments; loading ignores them
        X = np.random.default_rng(1).standard_normal((32, 3))
        stats = compute_source_stats(mlp_model, [X])
        path = tmp_path / "model.npz"
        save_checkpoint(path, mlp_model, stats)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["stats.stem_mean"] = np.zeros(8)
        arrays["stats.stem_var"] = np.ones(8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        loaded, loaded_stats = load_checkpoint(path)
        assert loaded.config == mlp_model.config
        assert loaded_stats.sample_count == 32
        for a, b in zip(stats.stds, loaded_stats.stds):
            np.testing.assert_array_equal(a, b)

    def test_round_trip_without_stats(self, tmp_path, mlp_model):
        path = tmp_path / "model.npz"
        save_checkpoint(path, mlp_model)
        _, stats = load_checkpoint(path)
        assert stats is None
