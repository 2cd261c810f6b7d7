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

Pre-deployment training uses plain gradient descent (Adam) implemented
locally, in float64 on flat buffers of its own with per-layer views into
them; adaptation itself never computes gradients.  Each training layer
overwrites one new array with its affine, ReLU and skip connection, the
backward pass writes each gradient into its view, and one Adam step updates
the flat buffers in place, chunk by chunk: all bit-identical to the
allocating expressions and per-weight update they replaced (``pretrain``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .validation import check_array, check_batch, store_int

_LN_EPS = 1e-5
_TRAIN_BATCH = 128  # pretraining minibatch size
_TRAIN_LEARNING_RATE = 3e-3  # Adam step size
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_ADAM_CHUNK = 65536  # elements per Adam pass over the flat buffers, bounding its scratch


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


def _normalize(z):
    """The training layer norm: normalize ``z`` over its last axis in place, leaving ``xhat``.

    Returns ``inv_std``, which ``_backward`` reads.  The ufuncs and their order
    are those of ``(z - mean) * (1 / sqrt(var + eps))``, so ``xhat`` is
    bit-identical to it.
    """
    n = z.shape[-1]
    z -= np.add.reduce(z, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(np.add.reduce(z * z, axis=-1, keepdims=True) / n + _LN_EPS)
    z *= inv_std
    return inv_std


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
    z = h.reshape(-1, h.shape[-1]) @ weight
    z += bias
    return z.reshape(*h.shape[:-1], -1)


def _softmax(logits):
    """Float64 softmax over the last axis, in place on a copy: ``exp(x - max) / sum``'s ufuncs."""
    e = logits.astype(np.float64)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
    def block_count(self) -> int:
        """Layers with a ReLU; their output statistics enter the fitness."""
        return sum(layer.relu for layer in self.layers)

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

    def forward(self, offsets, batch) -> tuple[np.ndarray, ActivationStats]:
        """Adapted forward pass: probabilities plus activation statistics.

        ``offsets`` of shape ``(offset_dim,)`` is added to the adaptable
        normalization parameters for this call only; it returns
        probabilities ``(B, C)`` and statistics of shape ``(w,)``.  Shape
        ``(K, offset_dim)`` evaluates a population of K candidates in one
        pass: probabilities ``(K, B, C)`` and per-block statistics
        ``(K, w)``, where row k is bit-identical to ``forward(offsets[k],
        batch)``.  The batch must be finite; non-finite *activations* (from
        extreme offsets, such as one beyond float32 range) are tolerated
        without warnings, and ``fitness`` scores such a candidate ``inf``.
        """
        X = check_batch(batch, "batch", width=self.config.in_dim)
        offsets = np.asarray(offsets, dtype=np.float64)
        if offsets.ndim not in (1, 2):
            raise ValueError(f"offset must be 1- or 2-dimensional, got shape {offsets.shape}")
        offsets = check_array(offsets, "offset", length=self.offset_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            logits, blocks, (stem_mean, stem_var) = self._activations(X, self._affines(offsets))
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


def _forward_train(layers: list[Layer], w: dict, X: np.ndarray):
    """Float64 forward pass over the weight dict ``w`` with cached intermediates (zero offsets).

    The cache is ``(h_in, relu_mask, xhat, inv_std)`` per layer, in layer
    order, plus the activations that enter the head.  ``relu_mask`` marks
    where the ReLU's input is positive, so where it passes the gradient; it
    is None for a layer without ReLU.  The affine, the ReLU and the skip
    connection overwrite one new array, by the ufuncs of
    ``h + maximum(xhat * scale + bias, 0)``, so a layer caches its output,
    ``xhat`` and the mask and nothing more.
    """
    per_layer = []
    h = X
    for layer in layers:
        name = layer.name
        xhat = _linear(h, w[f"{name}.w"], w[f"{name}.b"])
        inv_std = _normalize(xhat)
        out = xhat * w[f"{name}.ln_scale"]  # a new array: backward reads xhat
        out += w[f"{name}.ln_bias"]
        mask = None
        if layer.relu:
            mask = out > 0
            np.maximum(out, 0.0, out=out)
        if layer.skip:
            out += h  # IEEE addition commutes, so bitwise equal to h + out
        per_layer.append((h, mask, xhat, inv_std))
        h = out
    logits = _linear(h, w["head.w"], w["head.b"])
    return logits, (per_layer, h)


def _layer_norm_backward(d_out, xhat, inv_std, scale, d_scale, d_bias):
    """The layer norm's input gradient; writes its scale and bias gradients into the last two.

    The ufuncs and their order are those of ``inv_std * (d_xhat - mean(d_xhat)
    - xhat * mean(d_xhat * xhat))`` with ``d_xhat = d_out * scale``, each mean
    ``np.add.reduce(...) / n`` as ``np.mean`` takes it, so the result is
    bit-identical to that expression.  ``d_out`` is left untouched.
    """
    n = xhat.shape[1]
    product = d_out * xhat
    np.add.reduce(product, axis=0, out=d_scale)
    np.add.reduce(d_out, axis=0, out=d_bias)
    d_xhat = d_out * scale
    np.multiply(d_xhat, xhat, out=product)
    mean_d_xhat = np.add.reduce(d_xhat, axis=1, keepdims=True) / n
    np.multiply(xhat, np.add.reduce(product, axis=1, keepdims=True) / n, out=product)
    d_xhat -= mean_d_xhat
    d_xhat -= product
    d_xhat *= inv_std
    return d_xhat


def _backward(layers: list[Layer], w: dict, cache, d_logits: np.ndarray, grads: dict):
    """Write the gradient of every weight in ``w`` into the same key of ``grads``.

    ``cache`` is ``_forward_train``'s and ``d_logits`` the logit gradient.
    Each gradient is written by ``np.matmul(h.T, d, out=)`` or
    ``np.add.reduce(d, axis=0, out=)``, the calls of ``h.T @ d`` and
    ``d.sum(axis=0)``, so bit-identical to them.
    """
    per_layer, h = cache
    np.matmul(h.T, d_logits, out=grads["head.w"])
    np.add.reduce(d_logits, axis=0, out=grads["head.b"])
    d_h = d_logits @ w["head.w"].T
    for layer, (h_in, mask, xhat, inv_std) in zip(reversed(layers), reversed(per_layer)):
        name = layer.name
        d_n = d_h * mask if layer.relu else d_h
        d_z = _layer_norm_backward(
            d_n, xhat, inv_std, w[f"{name}.ln_scale"],
            grads[f"{name}.ln_scale"], grads[f"{name}.ln_bias"],
        )
        np.matmul(h_in.T, d_z, out=grads[f"{name}.w"])
        np.add.reduce(d_z, axis=0, out=grads[f"{name}.b"])
        if layer is layers[0]:
            break  # no gradient of the input batch is needed
        d_in = d_z @ w[f"{name}.w"].T
        if layer.skip:
            d_in += d_h  # IEEE addition commutes, so bitwise equal to d_h + d_in
        d_h = d_in


def _adam_step(weights, grads, moments, step: int, scratch: np.ndarray):
    """Adam step ``step`` (from 1) in place on the flat buffers, ``_ADAM_CHUNK`` elements at a time.

    ``moments`` holds the first and second moment ``m`` and ``v`` as its two
    rows.  Per chunk the ufuncs of ``m = m*beta1 + g*(1-beta1)``,
    ``v = v*beta2 + (g*(1-beta2))*g`` and ``w -= lr*(m/c1) / (sqrt(v/c2)+eps)``
    run in that order, so every weight is bit-identical to the allocating
    update of each weight array on its own.  The two rows of ``scratch`` hold
    the temporaries: two chunk-sized arrays, not two parameter-sized ones.
    """
    c1 = 1 - _ADAM_BETA1**step
    c2 = 1 - _ADAM_BETA2**step
    for lo in range(0, weights.size, _ADAM_CHUNK):
        hi = min(lo + _ADAM_CHUNK, weights.size)
        g, (m_part, v_part) = grads[lo:hi], moments[:, lo:hi]
        a, b = scratch[:, : hi - lo]
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

    Training runs in float64 on three flat buffers: the weights, the
    gradients and the two Adam moments.  The per-layer weight and gradient
    dicts that ``_forward_train`` and ``_backward`` use are reshaped views into
    the first two.  ``_backward`` writes each gradient into its view, and one
    chunked Adam pass (``_adam_step``) updates every weight, bit for bit as
    the allocating update of each weight array on its own would.  The weights
    are cast into the model's serving precision once, at the end.  ``y`` must
    hold integral class indices; a fractional or non-finite label is refused,
    not truncated.
    """
    X = check_batch(X, "X", width=config.in_dim)
    y = _check_labels(y, X.shape[0], config.class_count)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(101,))))
    layers = config.layers()
    initial = _init_weights(config, rng)
    shapes = {key: arr.shape for key, arr in initial.items()}
    flat_weights = np.concatenate([arr.ravel() for arr in initial.values()])
    del initial
    flat_grads = np.empty_like(flat_weights)
    moments = np.zeros((2, flat_weights.size))
    scratch = np.empty((2, min(flat_weights.size, _ADAM_CHUNK)))
    weights = _flat_views(flat_weights, shapes)
    grads = _flat_views(flat_grads, shapes)

    onehot = np.eye(config.class_count)[y]
    step = 0
    n_samples = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n_samples)
        for lo in range(0, n_samples, _TRAIN_BATCH):
            idx = order[lo : lo + _TRAIN_BATCH]
            # the last cache is freed only as this one is bound: freed before,
            # its pages went back to the OS and faulted in again every step
            logits, cache = _forward_train(layers, weights, X[idx])
            d_logits = _softmax(logits)  # a new array: (probs - onehot) / B in place
            d_logits -= onehot[idx]
            d_logits /= idx.shape[0]
            _backward(layers, weights, cache, d_logits, grads)
            step += 1
            _adam_step(flat_weights, flat_grads, moments, step, scratch)

    # the model copies the weights into its own arrays; free the rest before that
    del grads, flat_grads, moments, scratch
    return AdaptableModel(config, weights)


class _RunningMoments:
    """Streaming per-feature mean/variance (parallel-merge form)."""

    def __init__(self, width: int):
        self.count = 0
        self.mean = np.zeros(width)
        self.m2 = np.zeros(width)

    def update(self, n_b: int, b_mean: np.ndarray, b_var: np.ndarray):
        """Merge a batch of ``n_b`` samples with per-feature mean and variance."""
        b_m2 = b_var * n_b
        total = self.count + n_b
        delta = b_mean - self.mean
        self.mean = self.mean + delta * (n_b / total)
        self.m2 = self.m2 + b_m2 + delta**2 * (self.count * n_b / total)
        self.count = total

    def std(self) -> np.ndarray:
        return np.sqrt(self.m2 / self.count)


def compute_source_stats(model: AdaptableModel, source_batches) -> SourceStats:
    """Aggregate per-block activation moments over in-distribution batches."""
    block_moments = [_RunningMoments(model.config.width) for _ in range(model.block_count)]
    zero = model.bind(model.zero_offset())
    seen = 0
    for batch in source_batches:
        X = check_batch(batch, "source batch", width=model.config.in_dim)
        _, blocks, _ = model._activations(X, zero)
        for moments, (mean, var) in zip(block_moments, blocks):
            moments.update(X.shape[0], mean, var)
        seen += X.shape[0]
    if seen == 0:
        raise ValueError("source statistics require at least one sample")
    return SourceStats(
        means=[m.mean.copy() for m in block_moments],
        stds=[m.std() for m in block_moments],
    )

