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
used for shift detection, which no offset can reach.

Base weights are frozen after training.  Test-time adaptation never touches
them: every forward call takes an offset vector (or a population of them, one
per row) that is partitioned across the adaptable normalization scale/bias
vectors and added functionally.

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
locally, in float64 on its own weight dictionary; adaptation itself never
computes gradients.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .validation import check_array, check_batch, check_int

CHECKPOINT_SCHEMA_VERSION = 1
_LN_EPS = 1e-5
_TRAIN_BATCH = 128  # pretraining minibatch size
_TRAIN_LEARNING_RATE = 3e-3  # Adam step size


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
        check_int(self.in_dim, "in_dim")
        check_int(self.width, "width")
        check_int(self.class_count, "class_count", minimum=2)
        if self.kind == "residual":
            check_int(self.blocks, "blocks", minimum=2)

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
    sample_count: int = 0


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
    z -= np.matmul(rows, np.ones((n, 1), z.dtype))[..., 0] / n
    z *= 1.0 / np.sqrt(np.matmul(rows, z[..., :, None])[..., 0] / n + _LN_EPS)


def _linear(h, weight, bias):
    """``h @ weight + bias`` as one GEMM over all leading axes of ``h``, bias added in place."""
    z = h.reshape(-1, h.shape[-1]) @ weight
    z += bias
    return z.reshape(*h.shape[:-1], -1)


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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

    def _activations(self, offsets: np.ndarray, X: np.ndarray):
        """Logits, and (mean, variance) over the batch of each block and the stem tap.

        ``offsets`` is one offset ``(offset_dim,)`` or a population
        ``(K, offset_dim)``; the population axis leads every offset-dependent
        result.  Layers before the first offset run once on the ``(B, w)``
        batch and are shared by all K candidates: the mlp's first linear
        layer and its normalized activations, the residual model's fixed stem
        and its first block's linear layer.  From there on activations are
        ``(K, B, w)`` and each linear layer is one ``(K*B, w)`` GEMM whose
        result the rest of the layer overwrites.  The head is one ``(B, w)``
        GEMM per candidate, so row k of the logits is bit-identical to a
        one-offset call; one flat ``(K*B, w) @ (w, C)`` GEMM is not at every
        shape.  Only the moments of a block output are kept, not the output
        itself.  The first layer's normalized output is cast to float32, and
        the logits are float32.
        """
        w = self.weights
        width = self.config.width
        h = X
        stem = None
        blocks = []
        start = 0  # each adaptable layer in turn takes a scale slice, then a bias slice
        for layer in self.layers:
            z = _linear(h, w[f"{layer.name}.w"], w[f"{layer.name}.b"])
            if stem is None:
                stem = _moments(z)  # before z is normalized in place
            _serve_normalize(z)
            z = z.astype(np.float32, copy=False)  # casts the first layer's xhat only
            scale = w[f"{layer.name}.ln_scale"]
            bias = w[f"{layer.name}.ln_bias"]
            if layer.adaptable:
                scale = np.add(scale, offsets[..., None, start : start + width], dtype=np.float32)
                bias = np.add(
                    bias, offsets[..., None, start + width : start + 2 * width], dtype=np.float32
                )
                start += 2 * width
            if scale.ndim > z.ndim:
                z = z * scale  # the population axis enters: a new (K, B, w) array
            else:
                z *= scale
            z += bias
            if layer.relu:
                np.maximum(z, 0.0, out=z)
            if layer.skip:
                z += h  # IEEE addition commutes, so bitwise equal to h + z
            h = z
            if layer.relu:
                blocks.append(_moments(h))
        logits = np.matmul(h, w["head.w"])
        logits += w["head.b"]
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
            logits, blocks, (stem_mean, stem_var) = self._activations(offsets, X)
            probs = _softmax(logits.astype(np.float64))
            means = [mean for mean, _ in blocks]
            stds = [np.sqrt(var) for _, var in blocks]
        return probs, ActivationStats(means, stds, stem_mean, stem_var)

    def stem_moments(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """Batch mean and variance of the stem tap, the first layer's pre-normalization output.

        Checks the batch as ``forward`` does and runs only the first linear
        layer; the result is bit-identical to the ``stem_mean``/``stem_var``
        of any ``forward`` on the same batch, since no offset reaches the tap.
        """
        X = check_batch(batch, "batch", width=self.config.in_dim)
        name = self.layers[0].name
        with np.errstate(over="ignore", invalid="ignore"):
            return _moments(_linear(X, self.weights[f"{name}.w"], self.weights[f"{name}.b"]))

    def zero_offset(self) -> np.ndarray:
        return np.zeros(self.offset_dim)

    def predict_proba(self, X) -> np.ndarray:
        return self.forward(self.zero_offset(), X)[0]

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


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


def _forward_train(layers: list[Layer], w: dict, X: np.ndarray):
    """Float64 forward pass over the weight dict ``w`` with cached intermediates (zero offsets).

    The cache is ``(h_in, n, xhat, inv_std)`` per layer, in layer order,
    plus the activations that enter the head.
    """
    per_layer = []
    h = X
    for layer in layers:
        name = layer.name
        xhat = _linear(h, w[f"{name}.w"], w[f"{name}.b"])
        inv_std = _normalize(xhat)
        # a new array: backward reads both xhat and n
        n = xhat * w[f"{name}.ln_scale"]
        n += w[f"{name}.ln_bias"]
        per_layer.append((h, n, xhat, inv_std))
        a = np.maximum(n, 0.0) if layer.relu else n
        h = h + a if layer.skip else a
    logits = _linear(h, w["head.w"], w["head.b"])
    return logits, (per_layer, h)


def _layer_norm_backward(d_out, xhat, inv_std, scale):
    d_scale = (d_out * xhat).sum(axis=0)
    d_bias = d_out.sum(axis=0)
    d_xhat = d_out * scale
    d_z = inv_std * (
        d_xhat
        - d_xhat.mean(axis=1, keepdims=True)
        - xhat * (d_xhat * xhat).mean(axis=1, keepdims=True)
    )
    return d_z, d_scale, d_bias


def _backward(layers: list[Layer], w: dict, cache, d_logits: np.ndarray) -> dict:
    """Gradients of every weight in ``w``, given ``_forward_train``'s cache and the logit gradient."""
    per_layer, h = cache
    grads = {"head.w": h.T @ d_logits, "head.b": d_logits.sum(axis=0)}
    d_h = d_logits @ w["head.w"].T
    for layer, (h_in, n, xhat, inv_std) in zip(reversed(layers), reversed(per_layer)):
        name = layer.name
        d_n = d_h * (n > 0) if layer.relu else d_h
        d_z, d_scale, d_bias = _layer_norm_backward(d_n, xhat, inv_std, w[f"{name}.ln_scale"])
        grads[f"{name}.ln_scale"] = d_scale
        grads[f"{name}.ln_bias"] = d_bias
        grads[f"{name}.w"] = h_in.T @ d_z
        grads[f"{name}.b"] = d_z.sum(axis=0)
        d_in = d_z @ w[f"{name}.w"].T
        d_h = d_h + d_in if layer.skip else d_in
    return grads


def pretrain(
    config: ArchitectureConfig,
    X,
    y,
    seed: int = 0,
    epochs: int = 60,
) -> AdaptableModel:
    """Train base weights on labeled source data with Adam; deterministic per seed.

    Training runs in float64 on its own weight dict, which is cast into the
    model's serving precision once, at the end.
    """
    X = check_batch(X, "X", width=config.in_dim)
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (X.shape[0],):
        raise ValueError("y must be a label vector matching X")
    if y.min() < 0 or y.max() >= config.class_count:
        raise ValueError("labels out of range")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(101,))))
    layers = config.layers()
    weights = _init_weights(config, rng)

    onehot = np.eye(config.class_count)[y]
    mated = {k: np.zeros_like(v) for k, v in weights.items()}
    v_adam = {k: np.zeros_like(v) for k, v in weights.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    n_samples = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n_samples)
        for lo in range(0, n_samples, _TRAIN_BATCH):
            idx = order[lo : lo + _TRAIN_BATCH]
            logits, cache = _forward_train(layers, weights, X[idx])
            probs = _softmax(logits)
            d_logits = (probs - onehot[idx]) / idx.shape[0]
            grads = _backward(layers, weights, cache, d_logits)
            step += 1
            for key, g in grads.items():
                mated[key] = beta1 * mated[key] + (1 - beta1) * g
                v_adam[key] = beta2 * v_adam[key] + (1 - beta2) * g * g
                m_hat = mated[key] / (1 - beta1**step)
                v_hat = v_adam[key] / (1 - beta2**step)
                weights[key] = weights[key] - _TRAIN_LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)

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
    zero = model.zero_offset()
    seen = 0
    for batch in source_batches:
        X = check_batch(batch, "source batch", width=model.config.in_dim)
        _, blocks, _ = model._activations(zero, X)
        for moments, (mean, var) in zip(block_moments, blocks):
            moments.update(X.shape[0], mean, var)
        seen += X.shape[0]
    if seen == 0:
        raise ValueError("source statistics require at least one sample")
    return SourceStats(
        means=[m.mean.copy() for m in block_moments],
        stds=[m.std() for m in block_moments],
        sample_count=seen,
    )


# -- persistence -------------------------------------------------------------


def save_checkpoint(path, model: AdaptableModel, source_stats: SourceStats | None = None):
    payload = {
        "schema_version": np.array([CHECKPOINT_SCHEMA_VERSION]),
        "config_json": np.array(json.dumps(asdict(model.config))),
    }
    for key, arr in model.weights.items():
        payload[f"weight.{key}"] = arr
    if source_stats is not None:
        payload["stats.count"] = np.array([source_stats.sample_count])
        for i, (mu, sd) in enumerate(zip(source_stats.means, source_stats.stds)):
            payload[f"stats.mean.{i}"] = mu
            payload[f"stats.std.{i}"] = sd
    with open(path, "wb") as fh:  # file handle keeps the exact filename
        np.savez(fh, **payload)


def load_checkpoint(path) -> tuple[AdaptableModel, SourceStats | None]:
    with np.load(path) as data:
        version = int(data["schema_version"][0])
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(f"unsupported checkpoint schema: {version}")
        config = ArchitectureConfig(**json.loads(str(data["config_json"])))
        weights = {
            key[len("weight.") :]: data[key] for key in data.files if key.startswith("weight.")
        }
        model = AdaptableModel(config, weights)
        stats = None
        if "stats.count" in data.files:
            means, stds = [], []
            i = 0
            while f"stats.mean.{i}" in data.files:
                means.append(data[f"stats.mean.{i}"])
                stds.append(data[f"stats.std.{i}"])
                i += 1
            stats = SourceStats(means, stds, sample_count=int(data["stats.count"][0]))
        return model, stats
