"""Population evaluation against the per-candidate loop it replaces.

The reference is the one-candidate-at-a-time path written out in plain 2-D
numpy, as the model, fitness and projector computed it before candidates
shared a pass: one forward per offset, ``np.linalg.norm`` per statistic, one
Fastfood block at a time.  The population path keeps every summation order
(one GEMM row per sample, one BLAS dot per norm, blocks summed in sequence),
so the bound on fitness, chosen before measuring, is exact equality.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pace.bank import VectorBank
from pace.fitness import FitnessConfig, fitness
from pace.model import AdaptableModel, ArchitectureConfig, _init_weights, compute_source_stats
from pace.projection import FastfoodProjector, fwht

EPS = 1e-5


def _reference_forward(model: AdaptableModel, offset: np.ndarray, X: np.ndarray):
    """One candidate: (probs, block means, block stds, finite), 2-D throughout."""
    w = model.weights
    width = model.config.width
    adaptable = [layer.name for layer in model.layers if layer.adaptable]

    def norm_params(layer):
        scale, bias = w[f"{layer}.ln_scale"], w[f"{layer}.ln_bias"]
        if layer in adaptable:
            start = 2 * width * adaptable.index(layer)
            scale = scale + offset[start : start + width]
            bias = bias + offset[start + width : start + 2 * width]
        return scale, bias

    def layer_norm(z, layer):
        scale, bias = norm_params(layer)
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        return (z - mu) * (1.0 / np.sqrt(var + EPS)) * scale + bias

    with np.errstate(over="ignore", invalid="ignore"):
        if model.config.kind == "mlp":
            h1 = np.maximum(layer_norm(X @ w["layer1.w"] + w["layer1.b"], "layer1"), 0.0)
            h2 = np.maximum(layer_norm(h1 @ w["layer2.w"] + w["layer2.b"], "layer2"), 0.0)
            blocks, h = [h1, h2], h2
        else:
            h = layer_norm(X @ w["stem.w"] + w["stem.b"], "stem")
            blocks = []
            for i in range(1, model.config.blocks + 1):
                z = h @ w[f"block{i}.w"] + w[f"block{i}.b"]
                h = h + np.maximum(layer_norm(z, f"block{i}"), 0.0)
                blocks.append(h)
        logits = h @ w["head.w"] + w["head.b"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        means = [blk.mean(axis=0) for blk in blocks]
        stds = [blk.std(axis=0) for blk in blocks]
    finite = all(np.all(np.isfinite(a)) for a in [probs] + means + stds)
    return probs, means, stds, finite


def _reference_fitness(probs, means, stds, source, lambda_weight):
    B, C = probs.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    entropy = float(-plogp.sum() / (B * C))
    total = 0.0
    for mu, sd, mu_s, sd_s in zip(means, stds, source.means, source.stds):
        total += float(np.linalg.norm(mu - mu_s) + np.linalg.norm(sd - sd_s))
    return entropy + lambda_weight * total


def _reference_transform(p: FastfoodProjector, V: np.ndarray) -> np.ndarray:
    padded = np.zeros((V.shape[0], p.d_padded))
    padded[:, : p.d] = V
    pieces = []
    for signs, gauss, perm, scale in zip(p.signs, p.gauss, p.perms, p.scales):
        u = fwht(padded * signs)
        u = fwht(u[:, perm] * gauss)
        pieces.append(u * (scale * p._output_scale))
    return np.concatenate(pieces, axis=1)[:, : p.D]


def _model(
    kind: str, seed: int, in_dim: int = 5, width: int = 16, blocks: int = 4
) -> tuple[AdaptableModel, object]:
    cfg = ArchitectureConfig(kind=kind, in_dim=in_dim, class_count=4, width=width, blocks=blocks)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    model = AdaptableModel(cfg, _init_weights(cfg, rng))
    source = compute_source_stats(model, [rng.standard_normal((64, in_dim)) for _ in range(4)])
    return model, source


# the benchmark's wide shape: offset_dim 3584, the population enters at block1's
# affine and the fixed last block sees (K, B, w) activations
WIDE = dict(kind="residual", in_dim=32, width=256, blocks=8)


@pytest.mark.parametrize(
    "shape",
    [
        pytest.param(dict(kind="mlp"), id="mlp"),
        pytest.param(dict(kind="residual"), id="residual"),
        pytest.param(WIDE, id="wide"),
    ],
)
def test_population_forward_and_fitness_match_per_candidate_loop(shape):
    model, source = _model(seed=3, **shape)
    in_dim, width = model.config.in_dim, model.config.width
    rng = np.random.default_rng(4)
    X = 1.5 * rng.standard_normal((64, in_dim))
    offsets = 0.3 * rng.standard_normal((12, model.offset_dim))
    offsets[7] = 1e308  # drives this candidate non-finite
    config = FitnessConfig(0.4)

    probs, stats = model.forward(offsets, X)
    scores = fitness(probs, stats, source, config)
    assert probs.shape == (12, 64, 4) and scores.shape == (12,)
    assert all(m.shape == (12, width) for m in stats.means + stats.stds)

    for k in range(12):
        ref_probs, ref_means, ref_stds, ref_finite = _reference_forward(model, offsets[k], X)
        np.testing.assert_array_equal(probs[k], ref_probs)
        assert np.isinf(scores[k]) == (not ref_finite)
        for got, ref in zip(stats.means + stats.stds, ref_means + ref_stds):
            np.testing.assert_array_equal(got[k], ref)
        single_probs, single_stats = model.forward(offsets[k], X)
        np.testing.assert_array_equal(single_probs, ref_probs)
        assert np.isinf(fitness(single_probs, single_stats, source, config)) == (not ref_finite)
        if ref_finite:
            ref_score = _reference_fitness(ref_probs, ref_means, ref_stds, source, 0.4)
            assert scores[k] == ref_score
            assert fitness(single_probs, single_stats, source, config) == ref_score
    assert np.isinf(scores[7]) and np.isinf(scores).sum() == 1


@pytest.mark.parametrize("kind", ["mlp", "residual"])
def test_forward_leaves_batch_and_offsets_untouched(kind):
    model, _ = _model(kind, seed=9)
    rng = np.random.default_rng(10)
    X = rng.standard_normal((32, 5))
    for shape in ((model.offset_dim,), (3, model.offset_dim)):
        offsets = rng.standard_normal(shape)
        X_before, offsets_before = X.copy(), offsets.copy()
        model.forward(offsets, X)
        np.testing.assert_array_equal(X, X_before)
        np.testing.assert_array_equal(offsets, offsets_before)


def test_wide_population_forward_peak_allocation():
    """Each layer overwrites the arrays it creates: few ``(K, B, w)`` arrays are alive at once."""
    model, _ = _model(seed=11, **WIDE)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((64, 32))
    offsets = 0.1 * rng.standard_normal((12, model.offset_dim))
    activation_bytes = 12 * 64 * 256 * 8
    model.forward(offsets, X)  # warm-up, so that no one-off allocation is counted
    tracemalloc.start()
    try:
        model.forward(offsets, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * activation_bytes, peak / activation_bytes


@pytest.mark.parametrize("kind", ["mlp", "residual"])
def test_stem_statistics_are_shared_by_the_population(kind):
    model, _ = _model(kind, seed=5)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((32, 5))
    _, population = model.forward(0.5 * rng.standard_normal((3, model.offset_dim)), X)
    _, zero = model.forward(model.zero_offset(), X)
    np.testing.assert_array_equal(population.stem_mean, zero.stem_mean)
    np.testing.assert_array_equal(population.stem_var, zero.stem_var)
    for stats in (population, zero):
        np.testing.assert_array_equal(model.stem_moments(X), (stats.stem_mean, stats.stem_var))


def test_all_blocks_transform_matches_per_block_reference():
    rng = np.random.default_rng(7)
    for d, D in [(32, 256), (6, 20), (16, 1000), (256, 3584)]:
        p = FastfoodProjector(d=d, D=D, seed=d)
        V = rng.standard_normal((12, d))
        np.testing.assert_array_equal(p.transform(V), _reference_transform(p, V))


def test_full_bank_retrieval_matches_candidate_by_candidate_scoring(tiny_setup):
    _, model, source = tiny_setup
    rng = np.random.default_rng(8)
    projector = FastfoodProjector(8, model.offset_dim, seed=1)
    config = FitnessConfig(0.4)
    bank = VectorBank(8, capacity=30)
    for _ in range(30):
        bank.archive(0.6 * rng.standard_normal(8))
    assert bank.count == 30
    batch = 1.7 * rng.standard_normal((64, 2))

    result = bank.retrieve_init(batch, model, projector, source, config)

    candidates = [np.zeros(8)] + list(bank.vectors)
    oracle = []
    for cand in candidates:
        probs, stats = model.forward(projector.project(cand), batch)
        oracle.append(fitness(probs, stats, source, config))
    assert result.forward_passes == len(candidates) == 31
    assert result.fitnesses == oracle
    np.testing.assert_array_equal(result.vector, candidates[int(np.argmin(oracle))])
