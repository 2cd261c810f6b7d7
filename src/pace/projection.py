"""Structured random projection from a small search space into weight-offset space.

The projector expands a ``d``-dimensional vector into a ``D``-dimensional
offset through stacked Fastfood blocks.  Each block applies the factor chain

    diag(s) . (1 / (d_padded * sqrt(d))) . H . diag(g) . P . H . diag(b)

where ``H`` is the (unnormalized) Walsh-Hadamard matrix, applied via the fast
transform and never materialized, ``b`` holds random signs, ``P`` is a random
permutation, ``g`` holds standard-normal draws, and ``s`` rescales rows so
their norms follow the chi distribution of a true Gaussian matrix.  With the
leading scale factor the composite behaves like a dense matrix with
N(0, 1/d) entries, so projecting a standard-normal input yields roughly
unit-variance outputs.

All randomness is drawn from counter-based Philox streams keyed by
``(seed, block_index, component_tag)``: blocks are mutually independent,
reproducible across platforms, and regenerable from the seed alone, so a
projector is never persisted: ``FastfoodProjector(d, D, seed)`` rebuilds it.
"""
from __future__ import annotations

import numpy as np

from .validation import check_array, check_int, is_power_of_two, next_power_of_two

# component tags for the per-block random streams
_TAG_SIGNS = 0
_TAG_GAUSS = 1
_TAG_PERM = 2
_TAG_SCALE = 3


def fwht(x) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (unnormalized, in Sylvester order).

    Input length must be a power of two.  Returns ``H @ x`` computed with the
    O(n log n) butterfly; applying it twice yields ``n * x``.

    The rows are moved innermost (the input is transposed once to ``(n, rows)``),
    so each stage is one copy, one in-place add and one in-place subtract over
    runs of ``h * rows`` contiguous elements rather than numpy calls on runs of
    ``h``.  The pairs ``(i, i + h)``, the stage order and the operations
    (``even + odd``, ``even - odd``) are those of the textbook loop, so the
    output is bit-identical to it.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        raise ValueError(f"fwht needs at least one axis, got shape {arr.shape}")
    n = arr.shape[-1]
    if not is_power_of_two(n):
        raise ValueError(f"fwht length must be a power of two, got {n}")
    out = arr.reshape(-1, n).T.copy()
    rows = out.shape[1]
    buf = np.empty(n // 2 * rows)
    h = 1
    while h < n:
        y = out.reshape(n // (2 * h), 2, h * rows)
        even = buf.reshape(n // (2 * h), h * rows)
        np.copyto(even, y[:, 0])
        odd = y[:, 1]
        y[:, 0] += odd
        np.subtract(even, odd, out=odd)
        h *= 2
    return out.T.reshape(arr.shape)


def _component_rng(seed: int, block_index: int, tag: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) % (1 << 64), spawn_key=(block_index, tag))
    return np.random.Generator(np.random.Philox(ss))


def _block_factors(seed: int, block_index: int, size: int) -> tuple[np.ndarray, ...]:
    """One block's signs, Gaussian diagonal, permutation and row scaling."""
    signs_rng = _component_rng(seed, block_index, _TAG_SIGNS)
    gauss_rng = _component_rng(seed, block_index, _TAG_GAUSS)
    perm_rng = _component_rng(seed, block_index, _TAG_PERM)
    scale_rng = _component_rng(seed, block_index, _TAG_SCALE)

    b_signs = (signs_rng.integers(0, 2, size=size) * 2 - 1).astype(np.int8)
    g_gauss = gauss_rng.standard_normal(size)
    perm = perm_rng.permutation(size).astype(np.uint32)
    # chi(size)-distributed row norms, compensated by the RMS of g so the
    # composite rows keep the target norm distribution
    chi = np.sqrt(scale_rng.chisquare(df=size, size=size))
    g_rms = np.sqrt(np.sum(g_gauss**2) / size)
    s_scale = chi / g_rms
    return b_signs, g_gauss, perm, s_scale


class FastfoodProjector:
    """Deterministic linear map from R^d to R^D built from stacked Fastfood blocks.

    The input is zero-padded to the next power of two, pushed through
    ``ceil(D / d_padded)`` independent blocks, and the concatenated output is
    truncated to exactly ``D`` entries.  Immutable after construction and safe
    to share across threads.

    The factors of all blocks are held once, stacked to ``(n_blocks, d_padded)``
    read-only arrays with row ``i`` belonging to block ``i``: ``signs`` (int8,
    entries +/-1), ``gauss`` (float64), ``perms`` (uint32, each row a
    permutation of ``range(d_padded)``) and ``scales`` (float64, positive).
    The permutations are held as ``transform``'s gather index (int64, row
    ``i`` offset by ``i * d_padded``), built once; ``perms`` derives them.
    """

    def __init__(self, d: int, D: int, seed: int = 0):
        self.d = check_int(d, "d")
        self.D = check_int(D, "D")
        self.seed = int(seed)
        self.d_padded = next_power_of_two(self.d)
        n_blocks = -(-self.D // self.d_padded)  # ceil
        # each factor of all blocks stacked to (n_blocks, d_padded), so one
        # transform pushes every row through every block at once
        per_block = (_block_factors(self.seed, i, self.d_padded) for i in range(n_blocks))
        stacked = tuple(np.stack(factor) for factor in zip(*per_block))
        self.signs, self.gauss, perms, self.scales = stacked
        # row i of perms, offset to block i of each sample's flattened blocks:
        # transform's gather index, held in place of perms
        self._flat_perms = perms + np.arange(0, perms.size, self.d_padded)[:, None]
        for factor in (self.signs, self.gauss, self._flat_perms, self.scales):
            factor.flags.writeable = False  # read-only: the projector is immutable
        # makes the composite approximately entrywise N(0, 1/d)
        self._output_scale = 1.0 / (self.d_padded * np.sqrt(self.d))

    @property
    def n_blocks(self) -> int:
        return self.signs.shape[0]

    @property
    def perms(self) -> np.ndarray:
        """The permutations, derived from the gather index ``transform`` holds."""
        perms = (self._flat_perms % self.d_padded).astype(np.uint32)
        perms.flags.writeable = False
        return perms

    @property
    def stored_nbytes(self) -> int:
        """Bytes held by the block factors (the dense equivalent is D*d floats)."""
        return sum(f.nbytes for f in (self.signs, self.gauss, self._flat_perms, self.scales))

    def dense_equivalent_nbytes(self) -> int:
        """Bytes of the dense float32 ``D x d`` matrix the projector stands in for."""
        return self.D * self.d * 4

    def transform(self, V) -> np.ndarray:
        """Project each row of ``V`` (shape ``(n, d)``) to shape ``(n, D)``.

        All rows and all blocks go through one array of shape
        ``(n, n_blocks, d_padded)``, so the whole projection costs two
        ``fwht`` calls whatever ``n`` and the block count.
        """
        V = check_array(V, "input", ndim=2, length=self.d)
        n = V.shape[0]
        width = self.n_blocks * self.d_padded
        padded = np.zeros((n, 1, self.d_padded), dtype=np.float64)
        padded[:, 0, : self.d] = V
        u = fwht(padded * self.signs)
        u = fwht(np.take(u.reshape(n, width), self._flat_perms, axis=1) * self.gauss)
        u = u * (self.scales * self._output_scale)
        return u.reshape(n, width)[:, : self.D]

    def project(self, v) -> np.ndarray:
        """Project a single vector of length ``d`` to length ``D``."""
        v = check_array(v, "v", ndim=1, length=self.d)
        return self.transform(v[None, :])[0]

    def __repr__(self) -> str:
        return f"FastfoodProjector(d={self.d}, D={self.D}, seed={self.seed})"
