"""A compact dense network (relu or tanh hidden layers, softmax output) with
plain mini-batch SGD.

The network is deliberately small and self-contained: deterministic
initialization, hand-written gradients, and no optimizer state beyond the
weights themselves, so locally trained models are reproducible bit for bit
from (weights, data, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, _rows_per_block
from .errors import ShapeMismatchError
from .model import LayerShape, ModelWeights

__all__ = [
    "ACTIVATIONS",
    "NetworkArchitecture",
    "TrainConfig",
    "EvalResult",
    "init_model",
    "predict",
    "train_local",
    "evaluate",
]

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class NetworkArchitecture:
    """Dense layer sizes from input to output, e.g. ``(20, 16, 4)``, and the
    seed of their initialization. The hidden activation is not part of it:
    each call that runs the network takes its own."""

    layer_sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 3:
            raise ValueError("architecture needs input, at least one hidden, and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")


@dataclass(frozen=True)
class TrainConfig:
    """Local SGD hyperparameters. ``learning_rate`` 0 is allowed and leaves
    the model unchanged; experiment configs require a positive rate."""

    learning_rate: float
    batch_size: int
    epochs: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class EvalResult:
    """Overall accuracy plus accuracy per class actually present in the data."""

    accuracy: float
    per_class: dict[int, float]


def init_model(arch: NetworkArchitecture) -> ModelWeights:
    """Deterministic initialization: each weight matrix is drawn uniformly
    from ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]``, biases start at zero. Every
    matrix and every bias registers as its own layer."""
    rng = np.random.default_rng(arch.seed)
    shapes, draws = [], []
    sizes = arch.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = 1.0 / math.sqrt(fan_in)
        draws.append(rng.uniform(-scale, scale, (fan_in, fan_out)).ravel())
        draws.append(np.zeros(fan_out))
        shapes += [LayerShape((fan_in, fan_out)), LayerShape((fan_out,))]
    return ModelWeights(shapes, np.concatenate(draws))


def _dense_pairs(
    model: ModelWeights, flat: np.ndarray | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight matrix, bias) pairs as reshaped views into ``flat``, which
    defaults to the model's own read-only vector; a writable copy of it
    gives writable views."""
    shapes, slices = model.shapes(), model.slices()
    if len(shapes) == 0 or len(shapes) % 2 != 0:
        raise ShapeMismatchError(
            f"expected alternating matrix/bias layers, got {len(shapes)} layers"
        )
    flat = model.flat if flat is None else flat
    pairs = []
    for k in range(0, len(shapes), 2):
        w_shape, b_shape = shapes[k], shapes[k + 1]
        if len(w_shape.dims) != 2 or len(b_shape.dims) != 1 or w_shape.dims[1] != b_shape.dims[0]:
            raise ShapeMismatchError(
                f"layers {k},{k + 1}: expected a matrix followed by its bias, "
                f"got dims {w_shape.dims} and {b_shape.dims}"
            )
        pairs.append((flat[slices[k]].reshape(w_shape.dims), flat[slices[k + 1]]))
    return pairs


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """The activation of ``z``, written over ``z``."""
    if activation == "relu":
        return np.maximum(z, 0.0, out=z)
    if activation == "tanh":
        return np.tanh(z, out=z)
    raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")


def _forward(pairs, X: np.ndarray, activation: str):
    """The activations of a batch (input first, then each hidden layer) and
    its logits. Each bias is added in place to its fresh product, the same
    float ops as ``x @ W + b`` without a second array. The products go
    through ``np.dot``: on 2-D float64 operands it calls the BLAS routine
    that ``@`` calls, so the bits are those of ``@``, and it costs less
    dispatch on a training step's small batches."""
    post: list[np.ndarray] = [X]
    for weight, bias in pairs[:-1]:
        z = np.dot(post[-1], weight)
        z += bias
        post.append(_activate(z, activation))
    weight, bias = pairs[-1]
    logits = np.dot(post[-1], weight)
    logits += bias
    return post, logits


def predict(model: ModelWeights, features, activation: str = "relu") -> np.ndarray:
    """Argmax class indices for a batch of feature rows, taken on the
    logits; exact logit ties resolve to the lower class index."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D feature batch, got shape {X.shape}")
    pairs = _dense_pairs(model)
    if X.shape[1] != pairs[0][0].shape[0]:
        raise ShapeMismatchError(
            f"feature width {X.shape[1]}, model expects {pairs[0][0].shape[0]}"
        )
    return np.argmax(_forward(pairs, X, activation)[1], axis=1)


def _batch_grads(pairs, grads, X, targets, activation) -> np.ndarray:
    """Backpropagate the batch's mean cross-entropy: each layer's gradient is
    written into ``grads``, (matrix, bias) views laid out like ``pairs``.
    ``targets`` holds the batch's labels one-hot. Returns the batch's
    log-probabilities.

    Every step is the float op of the textbook form, with fewer NumPy calls:
    the probabilities, all at least +0.0, lose their one-hot rows exactly as
    ``p[i, y_i] -= 1.0`` would (``p - 0.0`` is ``p``); the reductions are
    the ufuncs' own ``reduce`` (what ``.max`` and ``.sum`` run, without
    their Python layer); and a relu derivative is the mask ``a > 0`` of its
    activation, which holds where the pre-activation is positive, and
    multiplying by that bool mask gives the bits, signed zeros included, of
    multiplying by it as 1.0/0.0. The products go through ``np.dot``, as in
    ``_forward``, with the bits of ``np.matmul``, a 1 x 1 x 1 weight
    gradient's zero sign included."""
    post, logits = _forward(pairs, X, activation)
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    logits -= np.log(np.add.reduce(np.exp(logits), axis=1, keepdims=True))
    upstream = np.exp(logits)
    upstream -= targets
    upstream /= X.shape[0]
    for k in range(len(pairs) - 1, -1, -1):
        np.dot(post[k].T, upstream, out=grads[k][0])
        np.add.reduce(upstream, axis=0, out=grads[k][1])
        if k > 0:
            upstream = np.dot(upstream, pairs[k][0].T)
            if activation == "relu":
                upstream *= post[k] > 0.0
            else:
                upstream *= 1.0 - post[k] * post[k]
    if X.shape[0] == 1:
        # A one-row batch makes a 1 x 1 layer's weight gradient one product,
        # which np.matmul adds to +0.0 and np.dot returns as it is: adding
        # 0.0 turns a -0.0 into np.matmul's +0.0 and changes no other value.
        for weight_grad, _ in grads:
            if weight_grad.size == 1:
                weight_grad += 0.0
    return logits


def train_local(
    model: ModelWeights,
    data: LabeledDataset,
    cfg: TrainConfig,
    activation: str = "relu",
) -> ModelWeights:
    """``cfg.epochs`` passes of mini-batch SGD starting from ``model``.

    Every epoch reshuffles the sample order from a stream derived from
    ``cfg.seed``, so identical inputs always produce identical outputs. The
    batch size is clamped to the local dataset size and the final short
    batch of each epoch is used as-is. Each epoch gathers its shuffled
    feature rows and one-hot targets a block of whole batches at a time, at
    most ``_ROW_BYTES`` of them unless one batch is larger; each step
    backpropagates a slice of the block into one flat gradient buffer and
    updates the model's flat vector at once.
    """
    flat = model.flat.copy()
    pairs = _dense_pairs(model, flat)
    if data.d != pairs[0][0].shape[0]:
        raise ShapeMismatchError(
            f"dataset width {data.d}, model expects {pairs[0][0].shape[0]}"
        )
    grad = np.empty_like(flat)
    grads = _dense_pairs(model, grad)
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, data.n)
    features, labels, lr = data.features, data.labels, cfg.learning_rate
    eye = np.eye(pairs[-1][1].size)
    row_bytes = flat.itemsize * (data.d + eye.shape[0])
    per_block = _rows_per_block(row_bytes * batch) * batch
    for _ in range(cfg.epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, per_block):
            take = order[start : start + per_block]
            X, targets = features[take], eye[labels[take]]
            for step in range(0, take.size, batch):
                _batch_grads(
                    pairs, grads, X[step : step + batch], targets[step : step + batch], activation
                )
                grad *= lr  # the bits of ``flat -= lr * grad``, without its temporary
                flat -= grad
    return ModelWeights._owning(model, flat)


def evaluate(model: ModelWeights, data: LabeledDataset, activation: str = "relu") -> EvalResult:
    """Argmax accuracy overall and per class present in ``data``.

    Classes absent from the data simply do not appear in ``per_class``; the
    count-weighted average of the per-class accuracies equals ``accuracy``.
    """
    preds = predict(model, data.features, activation)
    correct = preds == data.labels
    per_class = {
        int(cls): float(correct[data.labels == cls].mean())
        for cls in np.unique(data.labels)
    }
    return EvalResult(float(correct.mean()), per_class)
