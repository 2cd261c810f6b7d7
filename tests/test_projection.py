from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from pace.projection import FastfoodProjector, fwht


def naive_hadamard(n: int) -> np.ndarray:
    """O(n^2) oracle built from the Sylvester recursion."""
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def explicit_block_matrix(p: FastfoodProjector, index: int = 0) -> np.ndarray:
    """Materialize one block's five factor matrices and multiply them out."""
    n = p.d_padded
    H = naive_hadamard(n)
    B = np.diag(p.signs[index].astype(np.float64))
    G = np.diag(p.gauss[index])
    P = np.zeros((n, n))
    P[np.arange(n), p.perms[index]] = 1.0
    S = np.diag(p.scales[index])
    return S @ H @ G @ P @ H @ B / (p.d_padded * np.sqrt(p.d))


def strided_fwht(x) -> np.ndarray:
    """The textbook butterfly: each stage over strided slices of inner length ``h``."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.shape[-1]
    out = arr.reshape(-1, n).copy()
    h = 1
    while h < n:
        y = out.reshape(-1, n // (2 * h), 2, h)
        even = y[:, :, 0, :].copy()
        odd = y[:, :, 1, :]
        y[:, :, 0, :] = even + odd
        y[:, :, 1, :] = even - odd
        h *= 2
    return out.reshape(arr.shape)


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


_rng = np.random.default_rng(12)
BUTTERFLY_INPUTS = {
    "1d-n1": _rng.standard_normal(1),
    "1d-n2": _rng.standard_normal(2),
    "1d-n8": _rng.standard_normal(8),
    "wide-population": _rng.standard_normal((12, 14, 256)),
    "full-bank": _rng.standard_normal((31, 8, 32)),
    "zero-rows": np.zeros((0, 8)),
    "integer": _rng.integers(-50, 50, size=(5, 16)),
    "transposed-view": _rng.standard_normal((64, 6)).T,
    "read-only": _read_only(_rng.standard_normal((7, 32))),
}


class TestFwht:
    @pytest.mark.parametrize("name", list(BUTTERFLY_INPUTS))
    def test_bit_identical_to_strided_butterfly(self, name):
        x = BUTTERFLY_INPUTS[name]
        before = x.copy()
        out = fwht(x)
        assert out.shape == x.shape and out.dtype == np.float64
        np.testing.assert_array_equal(out, strided_fwht(x))
        np.testing.assert_array_equal(x, before)  # the input comes back unwritten

    def test_rejects_zero_dimensional_input(self):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            fwht(3.0)

    def test_impulse_gives_all_ones(self):
        np.testing.assert_array_equal(fwht([1.0, 0.0, 0.0, 0.0]), [1.0, 1.0, 1.0, 1.0])

    def test_two_point(self):
        np.testing.assert_array_equal(fwht([1.0, 1.0]), [2.0, 0.0])

    def test_length_one_is_identity(self):
        np.testing.assert_array_equal(fwht([3.5]), [3.5])

    def test_matches_naive_oracle_n16(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        np.testing.assert_allclose(fwht(x), naive_hadamard(16) @ x, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 128])
    def test_matches_naive_oracle_sizes(self, n):
        rng = np.random.default_rng(n)
        H = naive_hadamard(n)
        for _ in range(10):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(fwht(x), H @ x, atol=1e-10)

    def test_self_inverse_up_to_scale(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 8, 64):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(fwht(fwht(x)), n * x, atol=1e-10)

    def test_batched_rows(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 8))
        H = naive_hadamard(8)
        np.testing.assert_allclose(fwht(X), X @ H.T, atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            fwht([1.0, 2.0, 3.0])


class TestBuildProjector:
    def test_paper_scale_dimensions_and_memory(self):
        p = FastfoodProjector(d=2304, D=34800, seed=5)
        assert p.d_padded == 4096
        assert p.n_blocks == 9
        assert p.stored_nbytes < 1_000_000  # < 1 MB stored
        assert p.dense_equivalent_nbytes() > 300_000_000  # ~306 MB dense float32

    def test_block_factors_are_held_once(self):
        FastfoodProjector(d=8, D=20, seed=1)  # numpy's first Philox use allocates caches
        tracemalloc.start()
        try:
            p = FastfoodProjector(d=2304, D=34800, seed=5)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live <= 1.05 * p.stored_nbytes

    @pytest.mark.parametrize("d, D, seed", [(6, 20, 123456789), (32, 300, 5), (2304, 34800, 5)])
    def test_factor_invariants(self, d, D, seed):
        p = FastfoodProjector(d=d, D=D, seed=seed)
        factors = (p.signs, p.gauss, p.perms, p.scales)
        for factor in factors:
            assert factor.shape == (p.n_blocks, p.d_padded)
        for perm in p.perms:
            np.testing.assert_array_equal(np.sort(perm), np.arange(p.d_padded))
        assert p.signs.dtype == np.int8 and p.perms.dtype == np.uint32
        assert np.all(np.abs(p.signs) == 1)
        assert np.all(p.scales > 0)
        for factor in factors:
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 1

    def test_exact_fit_single_block(self):
        p = FastfoodProjector(d=4, D=4, seed=0)
        assert p.d_padded == 4
        assert p.n_blocks == 1

    def test_deterministic_rebuild(self):
        a = FastfoodProjector(d=7, D=30, seed=42)
        b = FastfoodProjector(d=7, D=30, seed=42)
        np.testing.assert_array_equal(a.signs, b.signs)
        np.testing.assert_array_equal(a.gauss, b.gauss)
        np.testing.assert_array_equal(a.perms, b.perms)
        np.testing.assert_array_equal(a.scales, b.scales)

    def test_different_seeds_differ(self):
        a = FastfoodProjector(d=8, D=8, seed=1)
        b = FastfoodProjector(d=8, D=8, seed=2)
        assert not np.array_equal(a.gauss[0], b.gauss[0])

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            FastfoodProjector(d=0, D=4)
        with pytest.raises(ValueError):
            FastfoodProjector(d=4, D=0)

    def test_golden_values(self):
        # frozen outputs of the counter-based generator scheme; guards the
        # cross-platform reproducibility contract
        p = FastfoodProjector(d=6, D=20, seed=123456789)
        assert p.d_padded == 8 and p.n_blocks == 3
        assert p.signs[0].tolist() == [-1, -1, 1, -1, -1, 1, -1, -1]
        assert p.perms[0].tolist() == [5, 2, 1, 7, 0, 4, 6, 3]
        np.testing.assert_allclose(
            p.gauss[0, :4],
            [0.07711641729080154, -1.303495068949402, -0.23241793517274534, 1.8091052952691824],
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            p.scales[0, :4],
            [2.3382207374864015, 2.5141894291830122, 1.059365802565597, 2.4113814382659933],
            rtol=1e-13,
        )
        assert p.signs[2, :8].tolist() == [1, -1, -1, 1, -1, -1, 1, -1]
        out = p.project(np.arange(1.0, 7.0))
        np.testing.assert_allclose(
            out[:3],
            [-2.134735425473129, 4.5823717630187035, 1.6008036150688916],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            out[-3:],
            [-1.8729496340336431, 1.5442639617141787, -0.5166540927504993],
            rtol=1e-12,
        )


class TestProject:
    def test_zero_maps_to_zero(self):
        p = FastfoodProjector(d=5, D=23, seed=0)
        np.testing.assert_array_equal(p.project(np.zeros(5)), np.zeros(23))

    def test_scaling_linearity(self):
        p = FastfoodProjector(d=6, D=40, seed=3)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6)
        np.testing.assert_allclose(p.project(2 * v), 2 * p.project(v), atol=1e-10)

    def test_additive_linearity(self):
        p = FastfoodProjector(d=12, D=50, seed=3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            u, v = rng.standard_normal((2, 12))
            a, b = rng.standard_normal(2)
            np.testing.assert_allclose(
                p.project(a * u + b * v), a * p.project(u) + b * p.project(v), atol=1e-10
            )

    def test_rejects_wrong_length(self):
        p = FastfoodProjector(d=5, D=10, seed=0)
        with pytest.raises(ValueError, match="length 5"):
            p.project(np.zeros(6))

    def test_single_block_matches_explicit_matrix(self):
        for d in (4, 64):
            p = FastfoodProjector(d=d, D=d, seed=11)
            M = explicit_block_matrix(p)
            rng = np.random.default_rng(d)
            for _ in range(10):
                v = rng.standard_normal(d)
                np.testing.assert_allclose(p.project(v), M @ v, atol=1e-10)

    def test_multi_block_matches_stacked_explicit_matrices(self):
        p = FastfoodProjector(d=3, D=10, seed=2)
        M = np.vstack([explicit_block_matrix(p, i) for i in range(p.n_blocks)])[: p.D, : p.d]
        rng = np.random.default_rng(0)
        v = rng.standard_normal(3)
        np.testing.assert_allclose(p.project(v), M @ v, atol=1e-10)

    def test_transform_of_zero_rows_is_empty(self):
        p = FastfoodProjector(d=4, D=10, seed=0)
        out = p.transform(np.zeros((0, 4)))
        assert out.shape == (0, 10) and out.dtype == np.float64

    def test_transform_rows_match_project(self):
        p = FastfoodProjector(d=4, D=9, seed=8)
        rng = np.random.default_rng(0)
        V = rng.standard_normal((6, 4))
        out = p.transform(V)
        for i in range(6):
            np.testing.assert_array_equal(out[i], p.project(V[i]))


class TestGaussianApproximation:
    def test_moments_match_dense_reference(self):
        d = 256
        p = FastfoodProjector(d=d, D=d, seed=7)
        rng = np.random.default_rng(1)
        V = rng.standard_normal((10_000, d))
        Y = p.transform(V)
        assert abs(Y.mean()) < 0.05
        # per-coordinate variances, compared in aggregate against a dense
        # projection with N(0, 1/d) entries
        W = rng.standard_normal((d, d)) / np.sqrt(d)
        dense_var = (V @ W.T).var(axis=0).mean()
        fast_var = Y.var(axis=0).mean()
        assert abs(fast_var - dense_var) / dense_var < 0.15
