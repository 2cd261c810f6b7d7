from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import pace.model
from pace.bench.run import RunConfig
from pace.fitness import FitnessConfig, fitness
from pace.model import (
    AdaptableModel,
    ArchitectureConfig,
    _backward,
    _forward_train,
    _init_weights,
    _normalize,
    _serve_normalize,
    _softmax,
    _train_workspace,
    compute_source_stats,
    pretrain,
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


@pytest.fixture
def split_pretraining(monkeypatch):
    """Call with a CPU count: pretraining of any shape then splits each step over a fresh pool.

    The pool made under the patched count is shut down afterwards, and the
    process's own pool, if any, is back in place.  Meanwhile Python switches
    threads every 10 us, so that the two threads interleave at many more
    points.
    """

    def split(cpus):
        monkeypatch.setattr(pace.model, "_CHUNK_MIN_WORK", 0)
        monkeypatch.setattr(pace.model, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(pace.model, "_EXECUTOR", None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield split
    finally:
        sys.setswitchinterval(interval)
        if pace.model._EXECUTOR is not None:
            pace.model._EXECUTOR.shutdown()


def _reference_train(config: ArchitectureConfig, w: dict, X, onehot):
    """Logits and gradients over the weight dict ``w``, each architecture written out on its own.

    This is the per-architecture training code the single layer loop
    replaced, kept as the reference it must match bit for bit.  It runs in
    ``w``'s dtype, as ``X`` does; the logit gradient is taken by the float64
    softmax and cast to that dtype, as ``pretrain`` takes it.
    """

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
    if config.kind == "mlp":
        h = X
        for layer in ("layer1", "layer2"):
            n, xhat, inv_std = layer_norm(h @ w[f"{layer}.w"] + w[f"{layer}.b"], layer)
            cache[layer] = (h, n, xhat, inv_std)
            h = np.maximum(n, 0.0)
        logits = h @ w["head.w"] + w["head.b"]
        d_logits = ((_softmax(logits) - onehot) / X.shape[0]).astype(X.dtype)
        d_h = d_logits @ w["head.w"].T
        for layer in ("layer2", "layer1"):
            h_in, n, xhat, inv_std = cache[layer]
            d_h = layer_backward(layer, d_h * (n > 0), h_in, xhat, inv_std)
    else:
        blocks = [f"block{i}" for i in range(1, config.blocks + 1)]
        h, stem_xhat, stem_inv_std = layer_norm(X @ w["stem.w"] + w["stem.b"], "stem")
        for layer in blocks:
            n, xhat, inv_std = layer_norm(h @ w[f"{layer}.w"] + w[f"{layer}.b"], layer)
            cache[layer] = (h, n, xhat, inv_std)
            h = h + np.maximum(n, 0.0)
        logits = h @ w["head.w"] + w["head.b"]
        d_logits = ((_softmax(logits) - onehot) / X.shape[0]).astype(X.dtype)
        d_h = d_logits @ w["head.w"].T
        for layer in reversed(blocks):
            h_in, n, xhat, inv_std = cache[layer]
            d_h = d_h + layer_backward(layer, d_h * (n > 0), h_in, xhat, inv_std)
        layer_backward("stem", d_h, X, stem_xhat, stem_inv_std)
    grads["head.w"] = h.T @ d_logits
    grads["head.b"] = d_logits.sum(axis=0)
    return logits, grads


def _reference_pretrain(config: ArchitectureConfig, X, y, seed, epochs, dtype=np.float32):
    """``pretrain``'s model, by the per-weight, allocating Adam loop on ``_reference_train``.

    This is the update the flat, chunked, in-place Adam step replaced: about
    a dozen allocating numpy calls per weight array per step, kept as the
    reference it must match bit for bit.  It trains in ``dtype``: in float32,
    ``pretrain``'s precision, from the float64 initial draws, ``X`` and the
    one-hot targets each rounded once; in float64 it is the oracle that the
    float32 model's accuracy is bounded against.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(101,))))
    weights = {k: v.astype(dtype) for k, v in _init_weights(config, rng).items()}
    X = X.astype(dtype)
    onehot = np.eye(config.class_count, dtype=dtype)[y]
    mated = {k: np.zeros_like(v) for k, v in weights.items()}
    v_adam = {k: np.zeros_like(v) for k, v in weights.items()}
    beta1, beta2, eps, learning_rate = 0.9, 0.999, 1e-8, 3e-3
    step = 0
    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        for lo in range(0, X.shape[0], 128):
            idx = order[lo : lo + 128]
            _, grads = _reference_train(config, weights, X[idx], onehot[idx])
            step += 1
            for key, g in grads.items():
                mated[key] = beta1 * mated[key] + (1 - beta1) * g
                v_adam[key] = beta2 * v_adam[key] + (1 - beta2) * g * g
                m_hat = mated[key] / (1 - beta1**step)
                v_hat = v_adam[key] / (1 - beta2**step)
                weights[key] = weights[key] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return AdaptableModel(config, weights)


def _nan_grads(weights: dict) -> dict:
    """Gradient arrays for ``_backward`` to fill, nan until it writes them."""
    return {k: np.full_like(v, np.nan) for k, v in weights.items()}


def _predict(model, X):
    """Class predictions of the unadapted model."""
    return np.argmax(model.serve(model.bind(model.zero_offset()), X)[0], axis=1)


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

    def test_unknown_architecture_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture kind: 'conv'"):
            ArchitectureConfig(kind="conv", in_dim=3, class_count=2)

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("missing", "missing weight: head.b"),
            ("transposed", r"weight head.w has shape \(4, 8\), expected \(8, 4\)"),
        ],
        ids=["missing", "transposed"],
    )
    def test_weights_checked_against_the_layout(self, defect, message):
        cfg = ArchitectureConfig(kind="mlp", in_dim=3, class_count=4, width=8)
        weights = _init_weights(cfg, np.random.default_rng(0))
        if defect == "missing":
            del weights["head.b"]
        else:
            weights["head.w"] = weights["head.w"].T
        with pytest.raises(ValueError, match=message):
            AdaptableModel(cfg, weights)

    def test_block_and_stem_dimensions(self, residual_model, mlp_model):
        assert residual_model.block_count == 4
        assert mlp_model.block_count == 2

    def test_base_weights_immutable(self, mlp_model):
        with pytest.raises(ValueError):
            mlp_model.weights["head.w"][0, 0] = 99.0

    @pytest.mark.parametrize("fixture", ["mlp_model", "residual_model"])
    def test_first_linear_map_is_float64_and_the_rest_float32(self, fixture, request):
        model = request.getfixturevalue(fixture)
        first = model.layers[0].name
        for key, arr in model.weights.items():
            expected = np.float64 if key in (f"{first}.w", f"{first}.b") else np.float32
            assert arr.dtype == expected, key

    @pytest.mark.parametrize("kind", ["mlp", "residual"])
    def test_float32_and_own_weights_build_the_same_model(self, kind):
        # pretraining hands the model float32 weights, whose first layer it
        # casts exactly into float64; its own weights, passed back in, build
        # the same model
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        cfg = ArchitectureConfig(kind=kind, in_dim=3, class_count=4, width=8, blocks=3)
        weights = {
            k: (v + 0.3 * rng.standard_normal(v.shape)).astype(np.float32)
            for k, v in _init_weights(cfg, rng).items()
        }
        model = AdaptableModel(cfg, weights)
        rebuilt = AdaptableModel(cfg, model.weights)
        assert set(rebuilt.weights) == set(model.weights) == set(weights)
        for key, arr in model.weights.items():
            np.testing.assert_array_equal(arr, weights[key], err_msg=key)
            assert rebuilt.weights[key].dtype == arr.dtype, key
            np.testing.assert_array_equal(rebuilt.weights[key], arr)
        X = rng.standard_normal((16, 3))
        offsets = 0.2 * rng.standard_normal((3, model.offset_dim))
        probs, stats = model.forward(offsets, X)
        rebuilt_probs, rebuilt_stats = rebuilt.forward(offsets, X)
        np.testing.assert_array_equal(rebuilt_probs, probs)
        for a, b in zip(stats.means + stats.stds, rebuilt_stats.means + rebuilt_stats.stds):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(rebuilt.serve(rebuilt.bind(offsets[0]), X)[0], probs[0])


class TestServe:
    @pytest.mark.parametrize("fixture", ["mlp_model", "residual_model"])
    @pytest.mark.parametrize("scale", [0.0, 0.3], ids=["zero-offset", "offset"])
    def test_bit_identical_to_forward(self, fixture, scale, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((64, 3))
        offset = scale * rng.standard_normal(model.offset_dim)
        probs, stats = model.forward(offset, X)
        served, (stem_mean, stem_var) = model.serve(model.bind(offset), X)
        np.testing.assert_array_equal(served, probs)
        np.testing.assert_array_equal(stem_mean, stats.stem_mean)
        np.testing.assert_array_equal(stem_var, stats.stem_var)

    def test_population_of_offsets_rejected(self, mlp_model):
        offsets = np.zeros((2, mlp_model.offset_dim))
        with pytest.raises(ValueError, match="offset must be 1-dimensional"):
            mlp_model.bind(offsets)

    @pytest.mark.parametrize("fixture", ["mlp_model", "residual_model"])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("short", r"offset must have length \d+, got shape \(\d+,\)"),
            ("long", r"offset must have length \d+, got shape \(\d+,\)"),
            ("nan", "offset contains non-finite values"),
            ("inf", "offset contains non-finite values"),
        ],
    )
    def test_bind_checks_the_offset(self, fixture, defect, message, request):
        model = request.getfixturevalue(fixture)
        D = model.offset_dim
        offset = {
            "short": np.zeros(D - 1),
            "long": np.zeros(D + 1),
            "nan": np.where(np.arange(D) == 3, np.nan, 0.0),
            "inf": np.where(np.arange(D) == 3, -np.inf, 0.0),
        }[defect]
        with pytest.raises(ValueError, match=message):
            model.bind(offset)

    def test_serve_takes_bound_affines_only(self, mlp_model):
        X = np.random.default_rng(8).standard_normal((4, 3))
        with pytest.raises(ValueError, match=r"bind\(offset\)"):
            mlp_model.serve(mlp_model.zero_offset(), X)


class TestForward:
    def test_zero_offset_matches_unadapted_model_bit_exact(self, residual_model):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((16, 3))
        probs_a, _ = residual_model.forward(residual_model.zero_offset(), X)
        probs_b = residual_model.serve(residual_model.bind(residual_model.zero_offset()), X)[0]
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

    @pytest.mark.parametrize("fixture", ["mlp_model", "residual_model"])
    def test_batch_beyond_float32_range_is_served(self, fixture, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((16, 3))
        X[3, 1] = 1e39  # finite in float64, inf in float32
        offset = 0.1 * rng.standard_normal(model.offset_dim)
        probs, stats = model.forward(offset, X)
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        # the stem tap as a float64 forward computes it
        first = model.layers[0].name
        z = X @ model.weights[f"{first}.w"] + model.weights[f"{first}.b"]
        expected = (z.mean(axis=0), z.var(axis=0))
        np.testing.assert_array_equal(model.stem_moments(X), expected)
        np.testing.assert_array_equal((stats.stem_mean, stats.stem_var), expected)

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

    def test_rejects_offsets_of_three_dimensions(self, residual_model):
        offsets = np.zeros((1, 1, residual_model.offset_dim))
        with pytest.raises(ValueError, match="offset must be 1- or 2-dimensional"):
            residual_model.forward(offsets, np.zeros((2, 3)))

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


class TestServeNormalize:
    """The serving layer norm against the training one, ``_normalize``, as reference.

    Bounds on ``xhat``, chosen before measuring: 1e-5 absolute in float32 and
    1e-13 in float64.
    """

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-5), (np.float64, 1e-13)])
    @pytest.mark.parametrize("shape", [(1, 3), (9, 16), (64, 64), (12, 63, 256), (12, 64, 256)])
    def test_matches_training_layer_norm(self, shape, dtype, atol):
        rng = np.random.default_rng(5)
        x = (2.0 * rng.standard_normal(shape) + 0.5).astype(dtype)
        expected = x.copy()
        _normalize(expected, np.empty((*shape[:-1], 1), dtype), np.empty_like(expected))
        got = x.copy()
        _serve_normalize(got)
        np.testing.assert_allclose(got, expected, rtol=0, atol=atol)
        # it works in place, so a read-only input is refused, not written
        x.flags.writeable = False
        before = x.copy()
        with pytest.raises(ValueError, match="read-only"):
            _serve_normalize(x)
        np.testing.assert_array_equal(x, before)


class TestSourceStats:
    def test_single_repeated_sample_gives_zero_std(self, mlp_model):
        X = np.tile([0.5, 1.0, -2.0], (20, 1))
        stats = compute_source_stats(mlp_model, [X])
        for sd in stats.stds:
            np.testing.assert_allclose(sd, 0.0, atol=1e-12)

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


# (kind, _ADAM_CHUNK, the run sizes of one step) at width 9, in_dim 3, 4 classes, 3 blocks
ADAM_RUNS = [
    ("mlp", 1, [40, 108, 54]),
    ("mlp", 120, [148, 54]),
    ("mlp", 148, [148, 54]),
    ("residual", 1, [40, 108, 108, 108, 54]),
    ("residual", 120, [148, 216, 54]),
]
ADAM_RUN_IDS = [
    "mlp-run-per-part", "mlp-run-of-two", "mlp-run-of-exactly-the-chunk",
    "residual-run-per-part", "residual-runs-of-two",
]


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
        assert np.mean(_predict(model, X) == y) >= 0.99

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
        assert np.mean(_predict(model, X) == y) >= 0.90

    def test_residual_pretrains(self):
        X, y = two_blob_data(n=512)
        cfg = ArchitectureConfig(kind="residual", in_dim=2, class_count=2, width=16, blocks=4)
        model = pretrain(cfg, X, y, seed=0, epochs=20)
        assert np.mean(_predict(model, X) == y) >= 0.95

    def test_label_validation(self):
        X, y = two_blob_data(n=64)
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=8)
        with pytest.raises(ValueError, match="labels"):
            pretrain(cfg, X, y + 5, seed=0, epochs=1)
        for labels in (y[:-1], y[:, None]):
            with pytest.raises(ValueError, match="label vector matching X"):
                pretrain(cfg, X, labels, seed=0, epochs=1)

    def test_x_beyond_float32_range_refused(self):
        X, y = two_blob_data(n=64)
        X[5, 1] = 1e39  # finite in float64, inf in float32
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=8)
        with pytest.raises(ValueError, match="X must lie within float32 range"):
            pretrain(cfg, X, y, seed=0, epochs=1)

    @pytest.mark.parametrize(
        "labels",
        [
            np.tile([0.2, 1.9], 32),
            np.full(64, 0.7),
            np.r_[np.zeros(63), np.nan],
            np.r_[np.zeros(63), np.inf],
            np.r_[np.zeros(63), 1.0 + 1e-9],
            np.array(["0", "1"] * 32),
        ],
        ids=["fractional", "all-fractional", "nan", "inf", "near-integral", "strings"],
    )
    def test_non_integral_labels_refused_not_truncated(self, labels):
        X, _ = two_blob_data(n=64)
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=8)
        with pytest.raises(ValueError, match="labels must be integral class indices"):
            pretrain(cfg, X, labels, seed=0, epochs=1)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float64])
    def test_integral_labels_of_any_numeric_dtype_train_as_int64(self, dtype):
        X, y = two_blob_data(n=160)
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=8)
        a = pretrain(cfg, X, y, seed=2, epochs=2)
        b = pretrain(cfg, X, y.astype(dtype), seed=2, epochs=2)
        for key in a.weights:
            np.testing.assert_array_equal(a.weights[key], b.weights[key])

    @pytest.mark.parametrize("kind", ["mlp", "residual"])
    def test_matches_per_key_adam_reference(self, kind, monkeypatch):
        """Bit for bit the per-weight allocating loop, with one Adam chunk and with many.

        300 samples make the last minibatch of each epoch partial (44 rows);
        a chunk of 97 elements splits weight arrays across chunk edges and
        leaves the last chunk partial.
        """
        rng = np.random.default_rng(7)
        cfg = ArchitectureConfig(kind=kind, in_dim=3, class_count=4, width=9, blocks=3)
        X = rng.standard_normal((300, 3))
        y = rng.integers(0, 4, 300)
        reference = _reference_pretrain(cfg, X, y, seed=5, epochs=3)
        one_chunk = pretrain(cfg, X, y, seed=5, epochs=3)
        monkeypatch.setattr(pace.model, "_ADAM_CHUNK", 97)
        many_chunks = pretrain(cfg, X, y, seed=5, epochs=3)
        for model in (one_chunk, many_chunks):
            assert model.weights.keys() == reference.weights.keys()
            for key, ref in reference.weights.items():
                assert model.weights[key].dtype == ref.dtype, key
                np.testing.assert_array_equal(model.weights[key], ref, err_msg=key)

    @pytest.mark.parametrize("kind, chunk, runs", ADAM_RUNS, ids=ADAM_RUN_IDS)
    def test_adam_runs_match_per_key_adam_reference(self, kind, chunk, runs, monkeypatch):
        """Bit for bit the per-weight allocating loop, whichever parts share an Adam run.

        The parts hold 54 (first layer), 108 (each later layer) and 40 (head)
        parameters.  A chunk of 1 makes every part its own run; a chunk of
        120 closes runs that span two parts, the head and the last layer among
        them, and splits the 216-parameter run into two Adam chunks; a run
        that reaches the chunk exactly (148) closes.  Every step calls
        ``_adam_step`` once per run, in the backward's order.
        """
        rng = np.random.default_rng(7)
        cfg = ArchitectureConfig(kind=kind, in_dim=3, class_count=4, width=9, blocks=3)
        X = rng.standard_normal((300, 3))
        y = rng.integers(0, 4, 300)
        reference = _reference_pretrain(cfg, X, y, seed=5, epochs=3)
        sizes = []
        adam_step = pace.model._adam_step

        def spy(weights, *args):
            sizes.append(weights.size)
            adam_step(weights, *args)

        monkeypatch.setattr(pace.model, "_ADAM_CHUNK", chunk)
        monkeypatch.setattr(pace.model, "_adam_step", spy)
        model = pretrain(cfg, X, y, seed=5, epochs=3)
        assert sizes == runs * 9  # 3 epochs of 3 minibatches
        for key, ref in reference.weights.items():
            assert model.weights[key].dtype == ref.dtype, key
            np.testing.assert_array_equal(model.weights[key], ref, err_msg=key)

    @pytest.mark.parametrize("arch, width", [("mlp", 64), ("residual", 16)])
    def test_float32_model_agrees_with_a_float64_oracle(self, arch, width):
        """Float32 pretraining against the float64 per-key Adam loop, on 2048 held-out samples.

        The mlp is ``RunConfig()``'s 8-blob toy model; the residual has width
        16 and 4 blocks.  Both train as ``prepare_assets`` trains them: seed
        0, 60 epochs on 4096 clean samples.  The bounds were fixed before
        measuring: the two models' predictions agree on at least 99 % of the
        held-out samples, and their accuracies differ by at most 0.5 points.
        Observed: the mlp's predictions agree on 99.90 % (2 samples differ)
        with equal accuracy, the residual's on 99.95 % (1 sample) with a gap
        of 0.05 points.
        """
        from pace.bench.stream import make_source_batches

        config = RunConfig(seed=0, arch=arch, width=width)
        train = make_source_batches(config.stream_config(), config.train_samples, 256, tag=1)
        X, y = (np.concatenate(parts) for parts in zip(*train))
        held_out = make_source_batches(config.stream_config(), 2048, 256, tag=4)
        X_test, y_test = (np.concatenate(parts) for parts in zip(*held_out))
        cfg, epochs = config.architecture(), config.train_epochs
        predicted = _predict(pretrain(cfg, X, y, seed=0, epochs=epochs), X_test)
        oracle = _predict(_reference_pretrain(cfg, X, y, 0, epochs, np.float64), X_test)
        agreement = np.mean(predicted == oracle)
        accuracy_gap = 100 * abs(np.mean(predicted == y_test) - np.mean(oracle == y_test))
        print(f"{arch}: agreement {agreement:.4%}, accuracy gap {accuracy_gap:.3f} points")
        assert agreement >= 0.99
        assert accuracy_gap <= 0.5

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize(
        "samples", [301, 257], ids=["odd-last-minibatch", "one-row-last-minibatch"]
    )
    @pytest.mark.parametrize("kind, chunk, runs", ADAM_RUNS, ids=ADAM_RUN_IDS)
    def test_backward_on_the_pool_matches_per_key_adam_reference(
        self, kind, chunk, runs, samples, cpus, split_pretraining, monkeypatch
    ):
        """With the backward's lane on a pool of 1 or 3 workers, the same bits and Adam calls.

        The split is forced on a model far below ``_CHUNK_MIN_WORK``.  301
        samples leave a last minibatch of 45 rows, 257 one of a single row;
        the Adam runs are those of ``test_adam_runs_match_per_key_adam_reference``,
        so some span two parts.  ``_adam_step`` is still called once per run
        per step, in the backward's order, and never on the calling thread.
        """
        rng = np.random.default_rng(7)
        cfg = ArchitectureConfig(kind=kind, in_dim=3, class_count=4, width=9, blocks=3)
        X = rng.standard_normal((samples, 3))
        y = rng.integers(0, 4, samples)
        reference = _reference_pretrain(cfg, X, y, seed=5, epochs=3)
        split_pretraining(cpus)
        sizes, threads = [], set()
        adam_step = pace.model._adam_step

        def spy(weights, *args):
            sizes.append(weights.size)
            threads.add(threading.current_thread())
            adam_step(weights, *args)

        monkeypatch.setattr(pace.model, "_ADAM_CHUNK", chunk)
        monkeypatch.setattr(pace.model, "_adam_step", spy)
        model = pretrain(cfg, X, y, seed=5, epochs=3)
        assert sizes == runs * 9  # 3 epochs of 3 minibatches
        assert threads and threading.current_thread() not in threads
        for key, ref in reference.weights.items():
            np.testing.assert_array_equal(model.weights[key], ref, err_msg=key)

    @pytest.mark.parametrize("shape, cpus, pooled", [
        ("default", 2, False), ("default", 4, False), ("wide", 1, False), ("wide", 2, True),
    ])
    def test_only_a_large_model_on_two_cpus_or_more_trains_on_the_pool(
        self, shape, cpus, pooled, monkeypatch
    ):
        """``RunConfig()``'s model never asks for the pool; ``wide-adapt``'s does, given two CPUs.

        One 128-row minibatch of the default mlp (width 64) is 0.5 M
        multiply-adds per layer, below ``_CHUNK_MIN_WORK``; one of the wide
        residual model (width 256) is 8.4 M, at it.
        """
        if shape == "default":
            cfg = RunConfig().architecture()
        else:
            cfg = ArchitectureConfig(kind="residual", in_dim=32, class_count=8, width=256, blocks=8)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((300, cfg.in_dim))
        y = rng.integers(0, cfg.class_count, 300)
        calls = []
        executor = pace.model._executor

        def spy():
            calls.append(threading.current_thread())
            return executor()

        monkeypatch.setattr(pace.model, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(pace.model, "_executor", spy)
        pretrain(cfg, X, y, seed=0, epochs=1)
        assert bool(calls) == pooled

    def test_failure_on_the_pool_propagates_and_the_next_call_is_clean(
        self, split_pretraining, monkeypatch
    ):
        """An exception in a pool task leaves ``pretrain``; the next call gives the reference bits.

        The patched ``_adam_step`` fails on its fourth call, in the middle of
        the first step's backward, with lane tasks still queued behind it.
        """
        rng = np.random.default_rng(7)
        cfg = ArchitectureConfig(kind="residual", in_dim=3, class_count=4, width=9, blocks=3)
        X = rng.standard_normal((301, 3))
        y = rng.integers(0, 4, 301)
        reference = _reference_pretrain(cfg, X, y, seed=5, epochs=3)
        split_pretraining(2)
        monkeypatch.setattr(pace.model, "_ADAM_CHUNK", 1)
        adam_step = pace.model._adam_step
        threads = []

        def failing(*args):
            threads.append(threading.current_thread())
            if len(threads) == 4:
                raise RuntimeError("Adam step failed")
            adam_step(*args)

        monkeypatch.setattr(pace.model, "_adam_step", failing)
        with pytest.raises(RuntimeError, match="Adam step failed"):
            pretrain(cfg, X, y, seed=5, epochs=3)
        assert len(threads) == 4 and threading.current_thread() not in threads
        monkeypatch.setattr(pace.model, "_adam_step", adam_step)
        model = pretrain(cfg, X, y, seed=5, epochs=3)
        for key, ref in reference.weights.items():
            np.testing.assert_array_equal(model.weights[key], ref, err_msg=key)

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("last", [1, 2, 3, 4, 5, 45])
    @pytest.mark.parametrize("kind", ["mlp", "residual"])
    def test_forward_halves_on_the_pool_match_per_key_adam_reference(
        self, kind, last, cpus, split_pretraining, monkeypatch
    ):
        """With the forward's upper row half on a pool of 1 or 3 workers, the same bits.

        The split is forced on a model far below ``_CHUNK_MIN_WORK``.  128 +
        ``last`` samples give each epoch a full minibatch, split 64 + 64, and
        then one of ``last`` rows: split from 4 rows on (2 + 2, 2 + 3, 22 +
        23), and run whole on the calling thread at 1, 2 or 3.  Each half runs
        under half the caller's ufunc buffer, and every thread's buffer size
        is back once its half returns.
        """
        rng = np.random.default_rng(7)
        cfg = ArchitectureConfig(kind=kind, in_dim=3, class_count=4, width=9, blocks=3)
        X = rng.standard_normal((128 + last, 3))
        y = rng.integers(0, 4, 128 + last)
        reference = _reference_pretrain(cfg, X, y, seed=5, epochs=3)
        split_pretraining(cpus)
        bufsize = np.getbufsize()
        rows, after = [], []  # (thread, lo, hi, buffer size) per row range; sizes after a half
        forward_rows, forward_half = pace.model._forward_rows, pace.model._forward_half

        def rows_spy(layers, w, X, workspace, lo, hi):
            rows.append((threading.current_thread(), lo, hi, np.getbufsize()))
            forward_rows(layers, w, X, workspace, lo, hi)

        def half_spy(*args):
            try:
                forward_half(*args)
            finally:
                after.append(np.getbufsize())

        monkeypatch.setattr(pace.model, "_forward_rows", rows_spy)
        monkeypatch.setattr(pace.model, "_forward_half", half_spy)
        model = pretrain(cfg, X, y, seed=5, epochs=3)
        caller, half = threading.current_thread(), bufsize // 2
        if last >= 4:
            on_caller = [(0, 64, half), (0, last // 2, half)]
            on_pool = [(64, 128, half), (last // 2, last, half)]
        else:
            on_caller = [(0, 64, half), (0, last, bufsize)]
            on_pool = [(64, 128, half)]
        assert [r[1:] for r in rows if r[0] is caller] == on_caller * 3
        assert [r[1:] for r in rows if r[0] is not caller] == on_pool * 3
        assert all(r[0].name.startswith("pace-forward") for r in rows if r[0] is not caller)
        assert after == [bufsize] * (2 * len(on_pool) * 3)
        assert np.getbufsize() == bufsize
        for key, ref in reference.weights.items():
            np.testing.assert_array_equal(model.weights[key], ref, err_msg=key)

    @pytest.mark.parametrize("failing", ["pool", "caller"])
    def test_failure_in_a_forward_half_propagates_and_the_next_call_is_clean(
        self, failing, split_pretraining, monkeypatch
    ):
        """A raise in either forward half leaves ``pretrain``; the next call gives the reference bits.

        The patched ``_forward_rows`` fails in the second step, on the pool's
        half or on the caller's; when the caller's fails, the pool's half of
        that step takes 50 ms more, and ``pretrain`` still waits for it.
        After the failure and after the next call, ``np.getbufsize()`` reads
        as before on the calling thread and on the pool's one worker.
        """
        rng = np.random.default_rng(7)
        cfg = ArchitectureConfig(kind="residual", in_dim=3, class_count=4, width=9, blocks=3)
        X = rng.standard_normal((301, 3))
        y = rng.integers(0, 4, 301)
        reference = _reference_pretrain(cfg, X, y, seed=5, epochs=3)
        split_pretraining(2)
        bufsize, caller = np.getbufsize(), threading.current_thread()
        forward_rows = pace.model._forward_rows
        calls, done = [], []  # per row range started and returned: whether the pool ran it

        def fails_in_the_second_step(*args):
            on_pool = threading.current_thread() is not caller
            calls.append(on_pool)
            if calls.count(on_pool) == 2:
                if on_pool == (failing == "pool"):
                    raise RuntimeError("forward half failed")
                if on_pool:
                    time.sleep(0.05)
            forward_rows(*args)
            done.append(on_pool)

        def buffer_sizes():
            return np.getbufsize(), pace.model._EXECUTOR.submit(np.getbufsize).result()

        monkeypatch.setattr(pace.model, "_forward_rows", fails_in_the_second_step)
        with pytest.raises(RuntimeError, match="forward half failed"):
            pretrain(cfg, X, y, seed=5, epochs=3)
        failed_on_pool = failing == "pool"
        assert done.count(failed_on_pool) == 1 and done.count(not failed_on_pool) == 2
        assert buffer_sizes() == (bufsize, bufsize)
        monkeypatch.setattr(pace.model, "_forward_rows", forward_rows)
        model = pretrain(cfg, X, y, seed=5, epochs=3)
        assert buffer_sizes() == (bufsize, bufsize)
        for key, ref in reference.weights.items():
            np.testing.assert_array_equal(model.weights[key], ref, err_msg=key)

    @pytest.mark.parametrize("setting, value", [
        ("epochs", -1), ("epochs", 2.5), ("epochs", 3.0), ("epochs", "3"), ("epochs", True),
        ("seed", -1), ("seed", 1.5), ("seed", None), ("seed", False),
    ])
    def test_epochs_and_seed_are_checked(self, setting, value):
        X, y = two_blob_data(n=64)
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=8)
        with pytest.raises(ValueError, match=f"^{setting} must be >= 0 and an integer"):
            pretrain(cfg, X, y, **{setting: value})

    def test_zero_epochs_return_the_initial_weights(self):
        X, y = two_blob_data(n=64)
        cfg = ArchitectureConfig(kind="mlp", in_dim=2, class_count=2, width=8)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4, spawn_key=(101,))))
        # the float64 draws, rounded to float32 as pretraining trains them
        initial = AdaptableModel(
            cfg, {k: v.astype(np.float32) for k, v in _init_weights(cfg, rng).items()}
        )
        model = pretrain(cfg, X, y, seed=4, epochs=0)
        for key, arr in initial.weights.items():
            np.testing.assert_array_equal(model.weights[key], arr, err_msg=key)

    def test_pretrain_peak_allocation(self):
        """Pretraining holds three parameter-sized float32 buffers, one workspace and two runs.

        The bound is in units of four float32 parameter-sized buffers (P =
        541 448 elements each here), the weights, the gradients and the two
        Adam moments that pretraining once held; gradients now take two Adam
        runs.  On top of the weights and the moments (0.75): two gradient
        buffers of the largest run, the head and the last block (0.06), which
        runs take turns at so that the pool can step one while the backward
        writes the next; one chunk-sized Adam scratch array (0.03), the
        gradient chunk holding Adam's other temporary; and one workspace of
        128 rows, two (128, 256) float32 arrays and a boolean mask per layer,
        and four (128, 256) scratch arrays (0.37).  That adds up to about
        1.21; numpy 2.4 measured 1.229.  The bound, 1.25, is the factor the
        same test held in float64 units, so half the bytes.  In float64 units
        it was 1.75 while every step kept two minibatches' caches and a
        parameter-sized gradient buffer (numpy 2.4 measured 1.65), and numpy
        2.4 measured 1.23 for float64 pretraining with two gradient runs.  In
        float32 with two Adam scratch arrays it measured 1.259.
        """
        cfg = ArchitectureConfig(kind="residual", in_dim=32, class_count=8, width=256, blocks=8)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((300, 32))
        y = rng.integers(0, 8, 300)
        parameters = 32 * 256 + 8 * 256 * 256 + 9 * 3 * 256 + 256 * 8 + 8
        buffer_bytes = 4 * parameters * 4  # float32
        # warm-up: no one-off allocation counts, the thread pool that a full
        # 128-row minibatch of this shape starts on two CPUs included
        pretrain(cfg, X[:128], y[:128], seed=0, epochs=1)
        tracemalloc.start()
        try:
            pretrain(cfg, X, y, seed=0, epochs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * buffer_bytes, peak / buffer_bytes

    def test_steady_state_step_allocates_no_activation_or_parameter_array(self, monkeypatch):
        """Past its first step, a pretraining step allocates nothing of activation size or more.

        At ``test_pretrain_peak_allocation``'s shape, 684 samples make six
        steps per epoch, the last of 44 rows; two epochs give twelve.  From the
        second step on, every step starts at the same traced level, within
        1/8 of one (128, 256) float32 activation (16 KiB), and what it
        allocates on top of that peaks below the same 16 KiB plus numpy's own
        ufunc buffer.  That buffer, ``np.getbufsize()`` elements of float64
        (64 KiB), is made and freed inside numpy by every broadcasting ufunc,
        whatever the activations' size.  Its term keeps that float64 size:
        at float32's 32 KiB the bound would be 48 KiB, below the 50 KiB
        measured on top (below).  Where the forward runs in two row halves on
        two threads, each half runs with half that buffer, so the two
        together hold no more of it than one thread.  On a 2-CPU x86 box
        float32 pretraining measured levels within 6 KiB and 44-50 KiB on
        top, with or without the split; float64 pretraining measured 78 KiB
        on top, and 133 KiB in some runs of a split at the full buffer.
        What a step may allocate is row statistics, the
        probabilities, the cast logit gradient and the minibatch's one-hot
        rows.  A step is read from one ``_forward_train`` call to the next,
        so the minibatch gather before it counts in the level, not on top.
        """
        cfg = ArchitectureConfig(kind="residual", in_dim=32, class_count=8, width=256, blocks=8)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((684, 32))
        y = rng.integers(0, 8, 684)
        bound = 128 * 256 * 4 // 8  # 1/8 of a float32 activation
        traced = []  # at each step's start: the traced level, and the peak since the last start
        forward_train = pace.model._forward_train

        def spy(*args):
            traced.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return forward_train(*args)

        monkeypatch.setattr(pace.model, "_forward_train", spy)
        tracemalloc.start()
        try:
            pretrain(cfg, X, y, seed=0, epochs=2)
        finally:
            tracemalloc.stop()
        assert len(traced) == 12
        levels = [level for level, _ in traced[1:]]
        assert max(levels) - min(levels) < bound, levels
        # step s runs from start s to start s + 1: its peak is read at start s + 1
        on_top = [peak - level for (level, _), (_, peak) in zip(traced[1:], traced[2:])]
        assert max(on_top) < bound + np.getbufsize() * 8, on_top


class TestGradients:
    @pytest.mark.parametrize("kind", ["mlp", "residual"])
    def test_backprop_matches_finite_differences(self, kind):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
        cfg = ArchitectureConfig(kind=kind, in_dim=3, class_count=3, width=6, blocks=2)
        layers = cfg.layers()
        weights = _init_weights(cfg, rng)  # the float64 draws pretrain rounds to float32
        X = rng.standard_normal((5, 3))
        y = np.array([0, 1, 2, 1, 0])
        onehot = np.eye(3)[y]
        workspace = _train_workspace(cfg, 5, np.float64)  # finite differences need float64

        def loss():
            logits, _ = _forward_train(layers, weights, X, workspace)
            probs = _softmax(logits)
            return -np.mean(np.log(probs[np.arange(5), y]))

        logits, cache = _forward_train(layers, weights, X, workspace)
        probs = _softmax(logits)
        grads = _nan_grads(weights)
        _backward(layers, weights, cache, (probs - onehot) / 5, grads)
        eps = 1e-6
        check = np.random.default_rng(0)
        for key in ("head.w", f"{'layer1' if kind == 'mlp' else 'stem'}.w",
                    f"{'layer2' if kind == 'mlp' else 'block1'}.ln_scale"):
            arr = weights[key]
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
        X = rng.standard_normal((11, 3))
        onehot = np.eye(4)[rng.integers(0, 4, 11)]
        ref_logits, ref_grads = _reference_train(cfg, weights, X, onehot)
        layers = cfg.layers()
        logits, cache = _forward_train(layers, weights, X, _train_workspace(cfg, 11, np.float64))
        grads = _nan_grads(weights)  # a gradient _backward does not write stays nan and fails
        _backward(layers, weights, cache, (_softmax(logits) - onehot) / 11, grads)
        np.testing.assert_array_equal(logits, ref_logits)
        assert set(grads) == set(ref_grads) == set(weights)
        for key, grad in grads.items():
            np.testing.assert_array_equal(grad, ref_grads[key], err_msg=key)

