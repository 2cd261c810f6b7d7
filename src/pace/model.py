"""Forward-only toy classifiers with offsettable normalization parameters.

A model is a list of layers followed by a linear softmax head.  Each layer is
a linear map and a layer norm, optionally followed by a ReLU and a skip
connection around both, and its normalization scale/bias is either adaptable
or fixed.  ``ArchitectureConfig.layers`` spells out the two architectures:

* ``mlp`` -- ``layer1`` and ``layer2``, each with a ReLU, both adaptable;
* ``residual`` -- a fixed ``stem`` without ReLU, then ``blocks`` residual
  units with ReLU and skip connection, all adaptable except the last.

Inference, training, weight initialization and the shape checks all walk
that one list.  The layers with a ReLU are the blocks whose output statistics
enter the fitness; the first layer's pre-normalization output is the stem tap
used for shift detection, which no offset can reach.  Two calls serve a
batch: ``forward`` takes one offset or a population and also returns the
block moments the fitness reads; ``serve`` takes one bound offset and returns
only the probabilities and the stem moments, for a batch that is served but
not scored (a frozen batch, the rescue of a degenerate one, no adaptation).

Base weights are frozen after training.  Test-time adaptation never touches
them: an offset vector is partitioned across the adaptable normalization
scale/bias vectors and added to copies of them.  ``forward`` does that layer
by layer on every call, for one offset or a population (one per row);
``bind`` does it once for one offset, and ``serve`` reads its result.

Precision: the forward serves in float32 from the first layer's normalized
output onward.  The first layer's linear map (weights, GEMM, the stem tap and
its normalization) is float64, so the stem statistics and everything read
from them (shift detection, gamma calibration) are exact float64; every
finite batch is bounded there (|xhat| <= sqrt(w)), so no input overflows
float32 later.  Its normalized output is cast to float32 once, every later
weight is stored only as float32, and offsets are cast at the add.  Outputs
are float64: block moments accumulate in float64 and logits are promoted
before the softmax.  Layer-norm row statistics are BLAS dots (below).
Against a float64 forward with the same weights and ``np.mean``/``np.var``
layer norms (``tests/test_population.py``), probabilities stay within 1e-4
absolute and fitness within 1e-4 relative.

Each layer works in place: the bias add, the normalization, the affine, the
ReLU and the skip connection overwrite the array the layer's GEMM created
instead of allocating one array per step.  All but the normalization are the
ufuncs of the allocating expressions in the same order, so bit-identical to
them.  The serving layer norm (``_serve_normalize``) takes each row's
statistics by one BLAS dot per row, in the layer's precision and with no
``z * z`` temporary, so it differs from ``_normalize`` by rounding only (at
most 1e-5 in float32, 1e-13 in float64).  The caller's batch and offsets are
never written.

Threads: a population ``forward`` whose per-layer GEMMs are large enough
(``_chunk_count``) splits its candidates into contiguous chunks, at most one
per usable CPU.  The calling thread runs chunk 0 and a process-wide thread
pool, made on first use, runs the others; numpy releases the GIL inside the
GEMMs and the large ufuncs, so the chunks overlap.  Row k of a population is
bit-identical to the one-offset call, so it cannot depend on the chunk that
computed it: every chunk count gives the same bits.  Pretraining a model
whose minibatch GEMMs are as large (``_train_submit``) runs each step's
backward on two threads: the calling thread goes down the layers, computing
each layer's input gradient, while the pool computes the weight gradients it
leaves behind and runs Adam on them.  Those are the one-thread loop's calls
on the same operands in the same order, so the weights are the same bits on
any CPU set.  The step's forward, ``serve``, ``bind``,
``compute_source_stats``, a small model's training and every one-offset call
run on the calling thread alone.

Pre-deployment training uses plain gradient descent (Adam) implemented
locally, in float32 on flat buffers of its own with per-layer views into
them; adaptation itself never computes gradients.  The initial weights are
float64 draws in a fixed order, rounded to float32 once; the inputs are cast
once per call and the logit gradient, whose softmax is float64, once per
step, so every training GEMM is single precision.  The training functions
work in the weights' dtype, and the model casts the first layer exactly back
into float64.  A ``pretrain`` call makes one workspace that every step's
forward and backward overwrite, and the backward hands each run of layers to
Adam as soon as it is done with their weights, so gradients take two runs'
memory, not the parameters': all bit-identical to the allocating expressions
and the per-weight update after the whole backward that they replaced.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .validation import check_array, check_batch, check_int, store_int

_LN_EPS = 1e-5
_TRAIN_BATCH = 128  # pretraining minibatch size
_TRAIN_LEARNING_RATE = 3e-3  # Adam step size
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_ADAM_CHUNK = 65536  # elements per Adam pass over the flat buffers, bounding its scratch
# per-layer GEMM work (rows x width**2) a population chunk must keep to pay for its thread
_CHUNK_MIN_WORK = 8 * 2**20


@dataclass(frozen=True)
class Layer:
    """One linear + layer-norm layer; ``relu``, ``skip`` and ``adaptable`` shape the rest.

    ``skip`` adds the layer's input to its (activated) output; ``adaptable``
    puts its normalization scale and bias into the offset layout.
    """

    name: str
    fan_in: int
    relu: bool = True
    skip: bool = False
    adaptable: bool = True


@dataclass(frozen=True)
class ArchitectureConfig:
    kind: str  # "mlp" or "residual"
    in_dim: int
    class_count: int
    width: int = 64
    blocks: int = 4  # residual units; ignored for "mlp"

    def __post_init__(self):
        if self.kind not in ("mlp", "residual"):
            raise ValueError(f"unknown architecture kind: {self.kind!r}")
        store_int(self, "in_dim")
        store_int(self, "width")
        store_int(self, "class_count", minimum=2)
        if self.kind == "residual":
            store_int(self, "blocks", minimum=2)

    def layers(self) -> list[Layer]:
        """The layers in order, each of output width ``width``; the head follows.

        The residual model keeps the first (stem) and last block fixed; the
        two-layer MLP is too shallow for that rule, so both layers adapt.
        """
        if self.kind == "mlp":
            return [Layer("layer1", self.in_dim), Layer("layer2", self.width)]
        blocks = [
            Layer(f"block{i}", self.width, skip=True, adaptable=i < self.blocks)
            for i in range(1, self.blocks + 1)
        ]
        return [Layer("stem", self.in_dim, relu=False, adaptable=False)] + blocks


@dataclass
class ActivationStats:
    """Per-batch activation statistics emitted by a forward pass.

    ``means``/``stds`` hold per-feature batch statistics of each block
    output, shape ``(w,)`` for one offset or ``(K, w)`` for a population;
    ``stem_mean``/``stem_var`` are taken at the stem tap used for shift
    detection and are offset-invariant, so they keep shape ``(w,)``.
    """

    means: list[np.ndarray]
    stds: list[np.ndarray]
    stem_mean: np.ndarray
    stem_var: np.ndarray


@dataclass
class SourceStats:
    """Per-block activation moments of in-distribution data, read by the fitness."""

    means: list[np.ndarray]
    stds: list[np.ndarray]


def _moments(x):
    """Per-feature float64 mean and variance over the batch axis, the second to last.

    ``x`` itself is left untouched: the centred copy, the one full-size array
    this allocates, is squared in place.  For float64 ``x`` these are the same
    operations as ``np.mean`` and ``np.var``, so bit-identical to them, but the
    mean is summed once and the Python wrappers are skipped; with
    ``np.mean``/``np.var`` a frozen toy-mlp forward (B=64) took about 0.42 ms
    instead of 0.30 ms on a 2-CPU x86 box.  For float32 ``x`` the centred copy
    stays float32 and both sums accumulate in float64, so a batch of repeated
    rows keeps an exactly zero variance.
    """
    n = x.shape[-2]
    mean = np.add.reduce(x, axis=-2, keepdims=True, dtype=np.float64) / n
    squares = x - mean.astype(x.dtype, copy=False)
    squares *= squares
    return mean[..., 0, :], np.add.reduce(squares, axis=-2, dtype=np.float64) / n


def _normalize(z, inv_std, squares):
    """The training layer norm: normalize ``z`` over its last axis in place, leaving ``xhat``.

    Writes ``inv_std`` (``z``'s shape with a last axis of 1), which ``_backward``
    reads; ``squares``, of ``z``'s shape, holds ``z * z``, so nothing is
    allocated.  The ufuncs and their order are those of
    ``(z - mean) * (1 / sqrt(var + eps))``, so ``xhat`` is bit-identical to it.
    """
    n = z.shape[-1]
    z -= np.divide(np.add.reduce(z, axis=-1, keepdims=True, out=inv_std), n, out=inv_std)
    np.add.reduce(np.multiply(z, z, out=squares), axis=-1, keepdims=True, out=inv_std)
    inv_std /= n
    inv_std += _LN_EPS
    np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
    z *= inv_std


def _serve_normalize(z):
    """The serving layer norm: normalize ``z`` over its last axis in place, leaving ``xhat``.

    Each row's sum, and once the row is centred its sum of squares, is one
    BLAS dot per row: a stacked ``(1, n) @ (n, 1)`` matmul, as ``fitness._norm``
    takes its norms.  No full-size ``z * z`` temporary is made.  One dot per
    row, not one GEMV over all rows, so that identical rows get identical bits.
    ``xhat`` differs from ``_normalize``'s by rounding only.
    """
    n = z.shape[-1]
    rows = z[..., None, :]
    z -= np.matmul(rows, _ones_column(n, z.dtype))[..., 0] / n
    z *= 1.0 / np.sqrt(np.matmul(rows, z[..., :, None])[..., 0] / n + _LN_EPS)


@functools.cache
def _ones_column(n, dtype):
    """The ``(n, 1)`` ones ``_serve_normalize`` sums rows with, made once per width and dtype."""
    return np.ones((n, 1), dtype)


def _linear(h, weight, bias):
    """``h @ weight + bias`` as one GEMM over all leading axes of ``h``, bias added in place."""
    if h.ndim == 2:  # a batch: the reshapes below would be no-ops
        z = h @ weight
        z += bias
        return z
    z = h.reshape(-1, h.shape[-1]) @ weight
    z += bias
    return z.reshape(*h.shape[:-1], -1)


def _softmax(logits):
    """Float64 softmax over the last axis, in place on a copy: ``exp(x - max) / sum``'s ufuncs."""
    # the reductions ndarray.max and ndarray.sum wrap, called without the wrappers
    e = logits.astype(np.float64)
    e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunk_count(candidates: int, rows: int, width: int) -> int:
    """How many chunks a population forward of ``candidates`` on a ``rows``-row batch splits into.

    At most one per usable CPU, and at most as many as keep every chunk's
    per-layer GEMM work, its rows times ``width`` squared, at
    ``_CHUNK_MIN_WORK`` or above; below that, running a chunk on another
    thread cost more than it saved (``CHANGES.md`` has the crossover).  The
    smallest of ``n`` contiguous chunks holds ``candidates // n`` candidates,
    hence the floor division.  Only the shape and the CPU set decide.
    Pretraining holds one whole minibatch to the same ``_CHUNK_MIN_WORK``
    (``_train_submit``).
    """
    per_candidate = rows * width * width
    fewest = max(1, -(-_CHUNK_MIN_WORK // per_candidate))  # candidates per chunk, at least
    by_work = candidates // fewest
    if by_work < 2:
        return 1  # the one-chunk path never asks for the CPU set
    return min(by_work, _usable_cpus())


def _train_submit(rows: int, width: int):
    """Where a pretraining step on ``rows``-row minibatches runs its backward's lane.

    The lane is the backward's weight gradients and Adam steps.

    ``_executor``'s ``submit`` when one minibatch's per-layer GEMM work, its
    rows times ``width`` squared, reaches ``_CHUNK_MIN_WORK`` and the process
    may use two CPUs or more (``CHANGES.md`` has the crossover); else
    ``_run_now``, so a small model keeps to the calling thread.  Only the
    shape and the CPU set decide.
    """
    if rows * width * width < _CHUNK_MIN_WORK or _usable_cpus() < 2:
        return _run_now  # a small model never asks for the CPU set
    return _executor().submit


_EXECUTOR = None  # the population forward's and pretraining's worker threads, made on first use
_EXECUTOR_LOCK = threading.Lock()  # so that callers on several threads make one pool


def _executor():
    """The process-wide thread pool: population chunks but the first, and pretraining's lanes."""
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            from concurrent.futures import ThreadPoolExecutor  # lazily: most processes never chunk

            _EXECUTOR = ThreadPoolExecutor(
                max_workers=max(1, _usable_cpus() - 1), thread_name_prefix="pace-forward"
            )
        return _EXECUTOR


def _forget_executor():
    """In a forked child: drop the pool, whose copy has no live thread, and renew the lock."""
    global _EXECUTOR, _EXECUTOR_LOCK
    _EXECUTOR = None
    _EXECUTOR_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


class AdaptableModel:
    """A trained classifier whose normalization affine parameters accept offsets."""

    def __init__(self, config: ArchitectureConfig, weights: dict):
        self.config = config
        self.layers = config.layers()
        # the first linear map feeds the stem tap and stays float64; the rest serves in float32
        first = self.layers[0].name
        self.weights = {}
        for key, arr in weights.items():
            dtype = np.float64 if key in (f"{first}.w", f"{first}.b") else np.float32
            arr = np.array(arr, dtype=dtype)
            arr.flags.writeable = False  # base weights are immutable
            self.weights[key] = arr
        self._check_weight_shapes()
        w = self.weights
        self._linears = [(w[f"{layer.name}.w"], w[f"{layer.name}.b"]) for layer in self.layers]
        # a scale and a bias of width w per adaptable layer, in list order
        self.offset_dim = 2 * config.width * sum(layer.adaptable for layer in self.layers)

    # -- structure ---------------------------------------------------------

    @property
    def class_count(self) -> int:
        return self.config.class_count

    def _check_weight_shapes(self):
        w, c = self.config.width, self.config.class_count
        expected = {}
        for layer in self.layers:
            expected[f"{layer.name}.w"] = (layer.fan_in, w)
            for part in ("b", "ln_scale", "ln_bias"):
                expected[f"{layer.name}.{part}"] = (w,)
        expected.update({"head.w": (w, c), "head.b": (c,)})
        for key, shape in expected.items():
            if key not in self.weights:
                raise ValueError(f"missing weight: {key}")
            if self.weights[key].shape != shape:
                raise ValueError(
                    f"weight {key} has shape {self.weights[key].shape}, expected {shape}"
                )

    # -- inference ---------------------------------------------------------

    def _affines(self, offsets):
        """Each layer's (scale, bias), an adaptable one's plus its offset slices; lazily."""
        width = self.config.width
        start = 0
        for layer in self.layers:
            scale = self.weights[f"{layer.name}.ln_scale"]
            bias = self.weights[f"{layer.name}.ln_bias"]
            if layer.adaptable:
                part = offsets[..., None, start : start + 2 * width]
                scale = np.add(scale, part[..., :width], dtype=np.float32)
                bias = np.add(bias, part[..., width:], dtype=np.float32)
                start += 2 * width
            yield scale, bias

    def _activations(self, X: np.ndarray, affines, *, block_moments: bool = True):
        """Logits, and (mean, variance) over the batch of each block and the stem tap.

        ``affines`` gives each layer's (scale, bias): ``_affines`` of one offset
        or a population, whose axis leads every offset-dependent result, or
        ``bind``'s.  Layers before the first offset run once on the ``(B, w)``
        batch and are shared by all K candidates: the mlp's first linear
        layer and its normalized activations, the residual model's fixed stem
        and its first block's linear layer.  From there on activations are
        ``(K, B, w)`` and each linear layer is one ``(K*B, w)`` GEMM whose
        result the rest of the layer overwrites.  The head is one ``(B, w)``
        GEMM per candidate, so row k of the logits is bit-identical to a
        one-offset call; one flat ``(K*B, w) @ (w, C)`` GEMM is not at every
        shape.  Only a block output's moments are kept, and only with
        ``block_moments``.  The first layer's normalized output is cast to
        float32, and the logits are float32.
        """
        h = X
        stem = None
        blocks = []
        for layer, (weight, bias), (scale, shift) in zip(self.layers, self._linears, affines):
            z = _linear(h, weight, bias)
            if stem is None:
                stem = _moments(z)  # before z is normalized in place
            _serve_normalize(z)
            z = z.astype(np.float32, copy=False)  # casts the first layer's xhat only
            if scale.ndim > z.ndim:
                z = z * scale  # the population axis enters: a new (K, B, w) array
            else:
                z *= scale
            z += shift
            if layer.relu:
                np.maximum(z, 0.0, out=z)
            if layer.skip:
                z += h  # IEEE addition commutes, so bitwise equal to h + z
            h = z
            if layer.relu and block_moments:
                blocks.append(_moments(h))
        logits = np.matmul(h, self.weights["head.w"])
        logits += self.weights["head.b"]
        return logits, blocks, stem

    def _chunk_activations(self, X: np.ndarray, offsets: np.ndarray):
        """A chunk's ``_activations``, under an ``np.errstate`` of its own: that is per thread."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._activations(X, self._affines(offsets))

    def _population_activations(self, X: np.ndarray, offsets: np.ndarray):
        """``_activations`` of ``offsets``, its candidates split into chunks that run concurrently.

        Chunk 0 runs on the caller, the others on ``_executor``'s threads; the
        logits and each block's (mean, variance) are joined along the
        population axis, and the stem moments are chunk 0's.
        """
        count = _chunk_count(len(offsets) if offsets.ndim == 2 else 1, len(X), self.config.width)
        if count == 1:
            return self._activations(X, self._affines(offsets))
        first, *rest = np.array_split(offsets, count)
        futures = [_executor().submit(self._chunk_activations, X, chunk) for chunk in rest]
        parts = [self._chunk_activations(X, first)] + [future.result() for future in futures]
        logits = np.concatenate([part[0] for part in parts])
        # per block, the chunks' (mean, variance) pairs become one pair of joined arrays
        blocks = [tuple(map(np.concatenate, zip(*block))) for block in zip(*(p[1] for p in parts))]
        return logits, blocks, parts[0][2]

    def forward(self, offsets, batch) -> tuple[np.ndarray, ActivationStats]:
        """Adapted forward pass: probabilities plus activation statistics.

        ``offsets`` of shape ``(offset_dim,)`` is added to the adaptable
        normalization parameters for this call only; it returns
        probabilities ``(B, C)`` and statistics of shape ``(w,)``.  Shape
        ``(K, offset_dim)`` with K >= 1 evaluates a population of K
        candidates in one pass: probabilities ``(K, B, C)`` and per-block
        statistics ``(K, w)``, where row k is bit-identical to
        ``forward(offsets[k], batch)``.  The batch must be finite;
        non-finite *activations* (from extreme offsets, such as one beyond
        float32 range) are tolerated without warnings, and ``fitness``
        scores such a candidate ``inf``.

        A population large enough to pay for it (``_chunk_count``) is split
        into contiguous candidate chunks, one per usable CPU at most: chunk 0
        runs on the calling thread, the rest on a process-wide thread pool,
        and the results are joined along the population axis.  Since row k
        is already bit-identical to the one-offset call, it cannot depend on
        which chunk computed it, so the output is the same bits at any
        chunk count.  Everything else, ``serve`` and any one-offset call
        included, runs on the calling thread.
        """
        X = check_batch(batch, "batch", width=self.config.in_dim)
        offsets = np.asarray(offsets, dtype=np.float64)
        if offsets.ndim not in (1, 2):
            raise ValueError(f"offset must be 1- or 2-dimensional, got shape {offsets.shape}")
        if offsets.ndim == 2 and offsets.shape[0] == 0:
            raise ValueError(f"offset population is empty, got shape {offsets.shape}")
        offsets = check_array(offsets, "offset", length=self.offset_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            logits, blocks, (stem_mean, stem_var) = self._population_activations(X, offsets)
            probs = _softmax(logits)
            means = [mean for mean, _ in blocks]
            stds = [np.sqrt(var) for _, var in blocks]
        return probs, ActivationStats(means, stds, stem_mean, stem_var)

    def bind(self, offset) -> tuple:
        """Check one offset ``(offset_dim,)``; return the per-layer affines ``serve`` reads."""
        offset = check_array(offset, "offset", ndim=1, length=self.offset_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            return tuple(self._affines(offset))

    def serve(self, affines, batch) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Probabilities ``(B, C)`` under ``bind(offset)``'s affines, and the stem (mean, variance).

        For a batch that is served but not scored: ``forward(offset, batch)``
        without the block moments, which only the fitness reads, and
        bit-identical to it.  Only the batch is checked; ``bind`` checked the offset.
        """
        if len(affines) != len(self.layers):
            raise ValueError("serve takes the per-layer affines that bind(offset) returns")
        X = check_batch(batch, "batch", width=self.config.in_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            logits, _, stem = self._activations(X, affines, block_moments=False)
            return _softmax(logits), stem

    def stem_moments(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """Batch mean and variance of the stem tap, the first layer's pre-normalization output.

        Checks the batch as ``forward`` does and runs only the first linear
        layer; the result is bit-identical to the ``stem_mean``/``stem_var``
        of any ``forward`` on the same batch, since no offset reaches the tap.
        """
        X = check_batch(batch, "batch", width=self.config.in_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            return _moments(_linear(X, *self._linears[0]))

    def zero_offset(self) -> np.ndarray:
        return np.zeros(self.offset_dim)


# -- training (pre-deployment only) -----------------------------------------


def _init_weights(config: ArchitectureConfig, rng: np.random.Generator) -> dict:
    w, c = config.width, config.class_count
    weights = {}

    def linear(name, fan_in, fan_out):
        weights[f"{name}.w"] = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        weights[f"{name}.b"] = np.zeros(fan_out)

    # the draw order (layers in list order, then the head) fixes every pretrained weight
    for layer in config.layers():
        linear(layer.name, layer.fan_in, w)
        weights[f"{layer.name}.ln_scale"] = np.ones(w)
        weights[f"{layer.name}.ln_bias"] = np.zeros(w)
    linear("head", w, c)
    return weights


def _flat_views(buffer: np.ndarray, shapes: dict) -> dict:
    """Consecutive reshaped views into the flat ``buffer``, one per key of ``shapes``, in order."""
    views = {}
    start = 0
    for key, shape in shapes.items():
        stop = start + math.prod(shape)
        views[key] = buffer[start:stop].reshape(shape)
        start = stop
    return views


def _train_workspace(config: ArchitectureConfig, rows: int, dtype) -> dict:
    """The arrays a pretraining step writes, made once at ``rows`` rows in the weights' ``dtype``.

    A step of n <= ``rows`` rows writes the leading n rows of ``inputs``, the
    minibatch; of ``out``, ``xhat``, ``inv_std`` and the ReLU ``mask``, one
    per layer along the first axis; of the ``logits``; and of four
    ``scratch`` arrays: the forward's layer-norm squares in the first, then
    the backward's gradients and products in all four.  The calling thread
    writes it; the backward's lane only reads it.
    """
    shape = (len(config.layers()), rows, config.width)
    return {
        "inputs": np.empty((rows, config.in_dim), dtype), "out": np.empty(shape, dtype),
        "xhat": np.empty(shape, dtype), "inv_std": np.empty((*shape[:2], 1), dtype),
        "mask": np.empty(shape, bool), "logits": np.empty((rows, config.class_count), dtype),
        "scratch": np.empty((4, *shape[1:]), dtype),
    }


class _Ran:
    """The future ``_run_now`` returns: its task has already run."""

    @staticmethod
    def result():
        return None


def _run_now(task, *args) -> _Ran:
    """``submit`` for a pretraining step on the calling thread alone: run ``task`` at once."""
    task(*args)
    return _Ran()


def _forward_train(layers: list[Layer], w: dict, X: np.ndarray, workspace: dict):
    """Forward pass over the weight dict ``w`` into ``workspace`` (zero offsets), in ``w``'s dtype.

    Returns the logits and the cache, views of the workspace's leading
    ``len(X)`` rows.  The cache is ``(h_in, relu_mask, xhat, inv_std)`` per
    layer, in layer order, the activations that enter the head, and the
    scratch ``_backward`` writes.  ``relu_mask`` marks where the ReLU's input
    is positive, so where it passes the gradient.  Every array is written by
    the ``out=`` forms of the ufuncs of ``h @ W + b`` and ``h + maximum(xhat
    * scale + bias, 0)``, in their order, so bit-identical to those.  It runs
    on the calling thread.
    """
    n = len(X)
    scratch = workspace["scratch"][:, :n]
    per_layer = []
    h = X
    for i, layer in enumerate(layers):
        name = layer.name
        out, xhat, inv_std = (workspace[key][i, :n] for key in ("out", "xhat", "inv_std"))
        np.matmul(h, w[f"{name}.w"], out=xhat)
        xhat += w[f"{name}.b"]
        _normalize(xhat, inv_std, scratch[0])
        np.multiply(xhat, w[f"{name}.ln_scale"], out=out)
        out += w[f"{name}.ln_bias"]
        mask = None
        if layer.relu:
            mask = np.greater(out, 0, out=workspace["mask"][i, :n])
            np.maximum(out, 0.0, out=out)
        if layer.skip:
            out += h  # IEEE addition commutes, so bitwise equal to h + out
        per_layer.append((h, mask, xhat, inv_std))
        h = out
    logits = np.matmul(h, w["head.w"], out=workspace["logits"][:n])
    logits += w["head.b"]
    return logits, (per_layer, h, scratch)


def _layer_norm_backward(d_out, xhat, inv_std, scale, d_scale, d_bias, product, d_xhat):
    """The layer norm's input gradient, in ``d_xhat``; writes its scale and bias gradients.

    ``product`` is scratch of ``xhat``'s shape.  The ufuncs and their order
    are those of ``inv_std * (d_xhat - mean(d_xhat) - xhat * mean(d_xhat *
    xhat))`` with ``d_xhat = d_out * scale``, each mean ``np.add.reduce(...) /
    n`` as ``np.mean`` takes it, so the result is bit-identical to that
    expression.  ``d_out`` is left untouched.
    """
    n = xhat.shape[1]
    np.multiply(d_out, xhat, out=product)
    np.add.reduce(product, axis=0, out=d_scale)
    np.add.reduce(d_out, axis=0, out=d_bias)
    np.multiply(d_out, scale, out=d_xhat)
    np.multiply(d_xhat, xhat, out=product)
    mean_d_xhat = np.add.reduce(d_xhat, axis=1, keepdims=True) / n
    np.multiply(xhat, np.add.reduce(product, axis=1, keepdims=True) / n, out=product)
    d_xhat -= mean_d_xhat
    d_xhat -= product
    d_xhat *= inv_std
    return d_xhat


def _weight_gradient(h, d, grad_w, grad_b):
    """``h.T @ d`` into ``grad_w``, ``d.sum(axis=0)`` into ``grad_b``: their ``out=`` forms."""
    np.matmul(h.T, d, out=grad_w)
    np.add.reduce(d, axis=0, out=grad_b)


def _after(previous, task, *args):
    """Run ``task(*args)`` once ``previous`` is done; an exception there is raised here instead."""
    previous.result()
    task(*args)


def _backward(
    layers: list[Layer], w: dict, cache, d_logits, grads: dict, finished=lambda i: None,
    submit=_run_now,
):
    """Write the gradient of every weight in ``w`` into the same key of ``grads``.

    ``cache`` is ``_forward_train``'s and ``d_logits`` the logit gradient.
    It calls ``finished(i)`` once it has written the gradients of part ``i``
    (a layer's index, ``len(layers)`` for the head, from the head down) and
    read its weights for the last time: after ``d_logits @ W.T`` for the
    head, ``d_z @ W.T`` for a layer.  Each gradient is written by
    ``np.matmul(h.T, d, out=)`` or ``np.add.reduce(d, axis=0, out=)``, the
    calls of ``h.T @ d`` and ``d.sum(axis=0)``, so bit-identical to them.

    The calling thread runs the chain each layer's input gradient waits on:
    the ReLU mask, ``_layer_norm_backward`` (which writes the layer norm's
    gradients) and ``d_z @ W.T``.  Each part's weight and bias gradients
    (``_weight_gradient``) and then its ``finished`` call go to ``submit``
    as one lane: each task waits for the one before it, so they run in this
    order on any pool, and with ``_run_now`` at once, in the one-thread
    order.  Layer i's ``d_z`` overwrites layer i + 1's ``xhat``, which the
    backward is done with (the last layer's goes to scratch), so the lane
    can still read it.  Before part i's ``_layer_norm_backward``, the caller
    waits for the lane to finish part i + 2: that frees the gradients the
    caller is about to write when two runs alternate between two buffers
    (``_train``).  It returns once the lane is done.
    """
    per_layer, h, (d_h, spare, product, d_last) = cache
    d_zs = [xhat for _, _, xhat, _ in per_layer[1:]] + [d_last]
    lane = submit(_weight_gradient, h, d_logits, grads["head.w"], grads["head.b"])
    np.matmul(d_logits, w["head.w"].T, out=d_h)
    lane = submit(_after, lane, finished, len(layers))
    done = {len(layers): lane}  # part -> the lane up to its finished call
    for i in reversed(range(len(layers))):
        name = layers[i].name
        h_in, mask, xhat, inv_std = per_layer[i]
        if i + 2 in done:
            done.pop(i + 2).result()
        d_n = np.multiply(d_h, mask, out=spare) if layers[i].relu else d_h
        d_z = _layer_norm_backward(
            d_n, xhat, inv_std, w[f"{name}.ln_scale"],
            grads[f"{name}.ln_scale"], grads[f"{name}.ln_bias"], product, d_zs[i],
        )
        gradients = grads[f"{name}.w"], grads[f"{name}.b"]
        lane = submit(_after, lane, _weight_gradient, h_in, d_z, *gradients)
        if i > 0:  # no gradient of the input batch is needed
            np.matmul(d_z, w[f"{name}.w"].T, out=spare)
            if layers[i].skip:
                spare += d_h  # IEEE addition commutes, so bitwise equal to d_h + d_in
            d_h, spare = spare, d_h
        done[i] = lane = submit(_after, lane, finished, i)
    lane.result()


def _adam_step(weights, grads, moments, step: int, scratch: np.ndarray):
    """Adam step ``step`` (from 1) in place on flat slices, ``_ADAM_CHUNK`` elements at a time.

    The slices are one run (``_train``); ``moments`` holds its first and
    second moment ``m`` and ``v`` as its two rows.  Per chunk the ufuncs of
    ``m = m*beta1 + g*(1-beta1)``, ``v = v*beta2 + (g*(1-beta2))*g`` and
    ``w -= lr*(m/c1) / (sqrt(v/c2)+eps)`` run in that order; Adam is
    elementwise, so every weight is bit-identical to the allocating update of
    each weight array on its own, whatever the runs and chunks.  The
    chunk-sized ``scratch`` holds one temporary, and the gradient chunk,
    which nothing reads after the moments, holds the other: ``grads`` is
    left overwritten.
    """
    c1 = 1 - _ADAM_BETA1**step
    c2 = 1 - _ADAM_BETA2**step
    for lo in range(0, weights.size, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, weights.size)
        g, (m_part, v_part) = grads[lo:hi], moments[:, lo:hi]
        a, b = scratch[: hi - lo], g
        m_part *= _ADAM_BETA1
        np.multiply(g, 1 - _ADAM_BETA1, out=a)
        m_part += a
        v_part *= _ADAM_BETA2
        np.multiply(g, 1 - _ADAM_BETA2, out=a)
        a *= g
        v_part += a
        np.divide(m_part, c1, out=a)
        a *= _TRAIN_LEARNING_RATE
        np.divide(v_part, c2, out=b)
        np.sqrt(b, out=b)
        b += _ADAM_EPS
        a /= b
        weights[lo:hi] -= a


def _check_labels(y, sample_count: int, class_count: int) -> np.ndarray:
    """``y`` as int64 class indices; a non-integral or out-of-range label raises before the cast."""
    labels = np.asarray(y)
    if labels.shape != (sample_count,):
        raise ValueError("y must be a label vector matching X")
    if labels.dtype.kind == "f":
        bad = np.flatnonzero(~(np.isfinite(labels) & (labels == np.trunc(labels))))
        if bad.size:
            i = bad[0]
            raise ValueError(f"labels must be integral class indices, got y[{i}] = {labels[i]}")
    elif labels.dtype.kind not in "biu":
        raise ValueError(f"labels must be integral class indices, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= class_count:
        raise ValueError("labels out of range")
    return labels.astype(np.int64)


def pretrain(
    config: ArchitectureConfig,
    X,
    y,
    seed: int = 0,
    epochs: int = 60,
) -> AdaptableModel:
    """Train base weights on labeled source data with Adam; deterministic per seed.

    Training runs in float32 on one flat buffer of weights (``_train``): the
    float64 initial draws are rounded once, and so are ``X`` and the one-hot
    targets.  The model takes the trained float32 weights and casts its first
    layer exactly into float64.  ``y`` must hold integral class indices; a
    fractional or non-finite label is refused, not truncated, and so is an
    ``X`` beyond float32 range.
    """
    seed = check_int(seed, "seed", minimum=0)
    epochs = check_int(epochs, "epochs", minimum=0)
    X = check_batch(X, "X", width=config.in_dim)
    y = _check_labels(y, X.shape[0], config.class_count)
    with np.errstate(over="ignore"):
        X = X.astype(np.float32)
    if not np.isfinite(X).all():
        raise ValueError("X must lie within float32 range")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(101,))))
    initial = _init_weights(config, rng)
    shapes = {key: arr.shape for key, arr in initial.items()}
    flat_weights = np.concatenate([arr.ravel() for arr in initial.values()], dtype=np.float32)
    del initial
    onehot = np.eye(config.class_count, dtype=np.float32)[y]
    _train(config, flat_weights, shapes, X, onehot, rng, epochs)
    return AdaptableModel(config, _flat_views(flat_weights, shapes))


def _train(config: ArchitectureConfig, flat_weights, shapes: dict, X, onehot, rng, epochs: int):
    """``epochs`` of minibatch Adam in place on ``flat_weights``, laid out as ``shapes``.

    The layers come in list order, then the head.  Every array the steps
    write takes ``flat_weights``' dtype, which ``X`` and ``onehot`` share;
    each step's logit gradient is taken by a float64 softmax and cast to it
    once.  Beside the weights, the call holds the two Adam moments, one
    ``_train_workspace`` that every step overwrites and gradients for two
    runs, all freed on return, before the model copies the weights.  A run
    is the parts the backward finishes in a row (the head, then layers from
    the last) until they hold ``_ADAM_CHUNK`` parameters, or the first layer
    is done; ``_adam_step`` updates it then, after the step's last read of
    its weights and from the same gradient bits, so every weight is
    bit-identical to an update after the whole backward.  Runs take turns at
    the two gradient buffers.

    When one minibatch is large enough (``_train_submit``), ``_backward``
    hands each part's weight gradients and Adam step to ``_executor``'s
    threads while the calling thread goes on down the layers; otherwise the
    same calls run on the calling thread alone.  Either way they are the
    same calls on the same operands, so every weight gets the same bits.
    The forward runs on the calling thread.
    """
    layers = config.layers()
    weights = _flat_views(flat_weights, shapes)
    starts = dict(zip(shapes, itertools.accumulate(map(math.prod, shapes.values()), initial=0)))
    parts = [layer.name for layer in layers] + ["head"]  # in flat order; the backward's reversed
    runs, hi = {}, flat_weights.size  # the part that closes a run -> the run's flat range
    for i in reversed(range(len(parts))):
        lo = starts[f"{parts[i]}.w"]
        if hi - lo >= _ADAM_CHUNK or i == 0:
            runs[i], hi = (lo, hi), lo
    # each its own array: one buffer for all of them, freed, raised glibc's
    # trim threshold, and each later set-up then left ~16 MB in the heap
    dtype = flat_weights.dtype
    flat_grads = np.empty((min(2, len(runs)), max(hi - lo for lo, hi in runs.values())), dtype)
    moments = np.zeros((2, flat_weights.size), dtype)
    scratch = np.empty(min(flat_grads.shape[1], _ADAM_CHUNK), dtype)
    rows = min(len(X), _TRAIN_BATCH)
    workspace = _train_workspace(config, rows, dtype)
    submit = _train_submit(rows, config.width)
    grads, run_grads = {}, {}
    for turn, (i, (lo, hi)) in enumerate(runs.items()):
        run_grads[i] = flat_grads[turn % 2, : hi - lo]
        run_shapes = {k: v for k, v in shapes.items() if lo <= starts[k] < hi}
        grads |= _flat_views(run_grads[i], run_shapes)

    def finished(i):
        if i in runs:
            lo, hi = runs[i]
            _adam_step(flat_weights[lo:hi], run_grads[i], moments[:, lo:hi], step, scratch)

    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for lo in range(0, len(X), _TRAIN_BATCH):
            idx = order[lo : lo + _TRAIN_BATCH]
            # mode "clip" never acts on a permutation; "raise" would copy through a buffer
            batch = np.take(X, idx, axis=0, out=workspace["inputs"][: len(idx)], mode="clip")
            logits, cache = _forward_train(layers, weights, batch, workspace)
            d_logits = _softmax(logits)  # a new (B, C) array: (probs - onehot) / B in place
            d_logits -= onehot[idx]
            d_logits /= idx.shape[0]
            step += 1
            _backward(layers, weights, cache, d_logits.astype(dtype), grads, finished, submit)


def compute_source_stats(model: AdaptableModel, source_batches) -> SourceStats:
    """Per-block activation moments of the unadapted model over in-distribution batches.

    Each batch is checked, then all of them are joined and scored by one
    ``forward`` at the zero offset, so these are the same moments a batch's
    own forward gives the fitness.  The whole source set is held at once.
    """
    batches = [check_batch(b, "source batch", width=model.config.in_dim) for b in source_batches]
    if not batches:
        raise ValueError("source statistics require at least one sample")
    _, stats = model.forward(model.zero_offset(), np.concatenate(batches))
    return SourceStats(means=stats.means, stds=stats.stds)

