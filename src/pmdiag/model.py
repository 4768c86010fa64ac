"""Feed-forward multiclass classifier over feature vectors.

Plain numpy MLP: ReLU hidden layers, softmax output, weighted cross-entropy
loss, hand-written backpropagation, and mini-batch gradient descent with
momentum. Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    DatasetIoError,
    FaultClass,
    PmDiagError,
    atomic_write_text,
    json_type_error,
    read_json,
    sha256_of_obj,
)

DEFAULT_LAYER_DIMS = (128, 64, 32, 5)
CLASS_NAMES = tuple(c.name for c in FaultClass)

# Probability floor: keeps softmax entries strictly inside (0, 1) under
# extreme logits and guards ln(0) in the loss.
PROB_FLOOR = 1e-12


class RowError(PmDiagError):
    """An input matrix failed a check; `row` is the index of the first bad row."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class DimensionMismatchError(RowError):
    """Input length does not match the model's input layer."""


class NonFiniteInputError(RowError):
    """An input feature vector holds NaN or an infinity."""


class DegenerateDataError(PmDiagError):
    """Training data holds fewer than two classes."""


class EmptyClassError(PmDiagError):
    """A present class has a zero sample count."""


@dataclass
class MlpModel:
    """Layer dimensions plus per-layer weight matrices and bias vectors.

    weights[l] has shape (fan_in, fan_out), and output column k is class
    FaultClass(k), named in model.json's class_names; forward is pure, but
    training updates parameters in place, so share models read-only.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        dims = self.layer_dims = tuple(self.layer_dims)
        if len(dims) < 2:
            raise ValueError("need at least input and output layers")
        if dims[-1] != len(CLASS_NAMES):
            raise ValueError("output dim must equal the number of classes")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("need one weight matrix and bias per layer transition")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l], dims[l + 1]) or b.shape != (dims[l + 1],):
                raise ValueError(f"layer {l} parameter shape mismatch")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l} has non-finite parameters")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    class_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        object.__setattr__(self, "class_weights", tuple(float(w) for w in self.class_weights))
        if len(self.class_weights) != len(CLASS_NAMES):
            raise ValueError("class_weights must have one entry per class")
        if any(w <= 0 for w in self.class_weights):
            raise ValueError("class_weights must all be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class Gradients:
    """Same structure as the model parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class TrainResult:
    model: MlpModel
    epoch_losses: list[float]


def class_weights(counts: "dict[FaultClass, int]") -> "dict[FaultClass, float]":
    """Inverse-frequency weights, normalized so their data-weighted mean is 1.

    w_c = N / (K * n_c) with N the total count and K the number of present
    classes. Classes absent from `counts` are excluded from training.
    """
    if not counts:
        raise EmptyClassError("no classes present")
    for cls, n in counts.items():
        if n <= 0:
            raise EmptyClassError(f"class {cls.name} has count {n}")
    total = sum(counts.values())
    k = len(counts)
    return {cls: total / (k * n) for cls, n in counts.items()}


def weight_vector(weights: "dict[FaultClass, float]") -> tuple[float, ...]:
    """Dense per-class weight tuple; absent classes get a placeholder 1.0."""
    return tuple(float(weights.get(cls, 1.0)) for cls in FaultClass)


def init_params(layer_dims=DEFAULT_LAYER_DIMS, seed: int = 0) -> MlpModel:
    """Uniform(-s, s) weights with s = sqrt(6 / fan_in); zero biases."""
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in layer_dims)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z) + PROB_FLOOR
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(
    model: MlpModel, x: np.ndarray, matmul=np.matmul
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Probabilities plus post-activation caches for backprop.

    `matmul(a, w)` returns each layer's product as a new array.
    """
    if x.ndim != 2 or x.shape[1] != model.layer_dims[0]:
        raise DimensionMismatchError(
            f"input width {x.shape[-1]} != layer_dims[0] {model.layer_dims[0]}"
        )
    activations = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = matmul(activations[-1], w)
        z += b
        activations.append(np.maximum(z, 0.0))
    z = matmul(activations[-1], model.weights[-1])
    z += model.biases[-1]
    return _softmax(z), activations


def _row_products(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # numpy runs a stack of (1, fan_in) rows as one gemv per row, the call a
    # one-row product makes; a 2-D product runs gemm, whose sums can differ
    return np.matmul(a[:, None, :], w)[:, 0]


def forward_rows(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities for each row of an (n, width) feature matrix.

    Each row goes through the model as its own one-row product, so its
    probabilities are those `forward` gives it alone, bit for bit, whatever
    rows surround it. An error's `row` is the first bad row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"need an (n, width) matrix, got shape {x.shape}")
    if x.shape[1] != model.layer_dims[0]:
        raise DimensionMismatchError(
            f"input length {x.shape[1]} != layer_dims[0] {model.layer_dims[0]}"
        )
    finite = np.isfinite(x)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteInputError(f"input value {int(col)} is not finite", int(row))
    probs, _ = _forward_batch(model, x, _row_products)
    return probs


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class probability vector for one feature vector: `forward_rows` of one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != model.layer_dims[0]:
        raise DimensionMismatchError(
            f"input length {x.size} != layer_dims[0] {model.layer_dims[0]}"
        )
    return forward_rows(model, x[None, :])[0]


def _batch_arrays(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y and w of (feature values, class, weight) triples: the stacked
    values, the class codes and the row weights."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    xs, ys, ws = zip(*batch)
    x = np.asarray(np.stack([np.asarray(v, dtype=np.float64) for v in xs]))
    y = np.asarray([int(v) for v in ys], dtype=np.int64)
    w = np.asarray([float(v) for v in ws], dtype=np.float64)
    return x, y, w


def _row_losses(model: MlpModel, x, y, w, matmul=np.matmul) -> np.ndarray:
    probs, _ = _forward_batch(model, x, matmul)
    p_true = probs[np.arange(len(y)), y]
    return w * -np.log(np.maximum(p_true, PROB_FLOOR))


def _loss_arrays(model: MlpModel, x, y, w) -> float:
    return float(np.mean(_row_losses(model, x, y, w)))


def _blocked_loss(model: MlpModel, x, y, w, block_rows: int) -> float:
    """`_loss_arrays` over at least two rows, its products run `block_rows` rows at a time.

    The value equals `_loss_arrays` on the same rows bit for bit (the tests
    check it): each block of a product runs gemm, as the full-set product
    does, and a row's gemm result does not depend on the block it sits in;
    the bias add, ReLU, softmax and mean then run once over all rows.
    OpenBLAS puts a product on several threads once m*n*k exceeds 4*65536,
    so one full-set product would wake a second BLAS thread every epoch,
    while blocks the size of a training batch run on the threads a gradient
    step runs on: the calling thread alone for the default 32 rows. Blocks
    hold at least two rows and there is no one-row tail, because numpy runs a
    one-row product through gemv, whose sums can differ in the last bit.
    """
    n = len(y)
    starts = range(0, n - 1, max(block_rows, 2))
    blocks = list(zip(starts, [*starts[1:], n]))

    def matmul(a, b):
        out = np.empty((n, b.shape[1]))
        for lo, hi in blocks:
            np.matmul(a[lo:hi], b, out=out[lo:hi])
        return out

    return float(np.mean(_row_losses(model, x, y, w, matmul)))


def loss(model: MlpModel, batch) -> float:
    """Mean over the batch of -weight * ln(p_label), p clamped at 1e-12."""
    x, y, w = _batch_arrays(batch)
    return _loss_arrays(model, x, y, w)


def _grad_arrays(model: MlpModel, x, y, w, out: Gradients) -> None:
    """Fill `out`'s arrays with the gradient of the batch loss."""
    n = len(y)
    probs, activations = _forward_batch(model, x)
    p_true = probs[np.arange(n), y]
    # items with clamped probability contribute a locally constant loss
    eff_w = np.where(p_true > PROB_FLOOR, w, 0.0)
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta *= (eff_w / n)[:, None]

    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[l].T, delta, out=out.weights[l])
        delta.sum(axis=0, out=out.biases[l])
        if l > 0:
            delta = (delta @ model.weights[l].T) * (activations[l] > 0.0)


def grad(model: MlpModel, batch) -> Gradients:
    """Analytic gradient of `loss` with respect to every weight and bias."""
    x, y, w = _batch_arrays(batch)
    out = Gradients(
        weights=[np.empty_like(m) for m in model.weights],
        biases=[np.empty_like(b) for b in model.biases],
    )
    _grad_arrays(model, x, y, w, out)
    return out


def _layer_views(flat: np.ndarray, model: MlpModel) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Consecutive views of `flat` shaped like the model's weights, then its biases."""
    arrays = [*model.weights, *model.biases]
    parts = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    views = [part.reshape(a.shape) for part, a in zip(parts, arrays)]
    return views[: len(model.weights)], views[len(model.weights) :]


def train(features, labels, cfg: TrainConfig) -> TrainResult:
    """Mini-batch momentum SGD over the rows of an (n, width) feature matrix.

    `labels` holds each row's FaultClass; the input layer is as wide as the
    rows. The epoch shuffle is seeded, so results are bit-reproducible for a
    fixed config. The learning rate decays linearly from cfg.learning_rate
    to zero across the epochs, so the final model settles instead of bouncing
    on gradient noise. The per-epoch log records the full-dataset loss after
    each epoch.
    """
    if len(labels) == 0:
        raise DegenerateDataError("no training data")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0 or len(x) != len(labels):
        width = x.shape[1] if x.ndim == 2 and x.shape[1] else "width >= 1"
        raise DimensionMismatchError(f"features of shape {x.shape} for {len(labels)} labels; "
                                     f"need ({len(labels)}, {width})")
    if len(set(labels)) < 2:
        raise DegenerateDataError("training data holds a single class")
    y = np.asarray([int(label) for label in labels], dtype=np.int64)
    # each row weighted by its class weight
    w = np.asarray(cfg.class_weights)[y]

    mdl = init_params((x.shape[1], *DEFAULT_LAYER_DIMS[1:]), cfg.seed)
    # parameters, gradients and velocity each live in one flat vector, so the
    # momentum step is three whole-vector statements; the model's and the
    # gradient's arrays are views into those vectors
    params = np.concatenate([a.ravel() for a in (*mdl.weights, *mdl.biases)])
    grads = np.empty_like(params)
    velocity = np.zeros_like(params)
    g = Gradients(*_layer_views(grads, mdl))
    mdl.weights, mdl.biases = _layer_views(params, mdl)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)))

    n = len(y)
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (1.0 - epoch / cfg.epochs)
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            _grad_arrays(mdl, x[idx], y[idx], w[idx], g)
            velocity *= cfg.momentum
            velocity -= lr * grads
            params += velocity
        epoch_losses.append(_blocked_loss(mdl, x, y, w, cfg.batch_size))
    # arrays that own their memory, as load_model's do
    mdl.weights = [a.copy() for a in mdl.weights]
    mdl.biases = [a.copy() for a in mdl.biases]
    return TrainResult(model=mdl, epoch_losses=epoch_losses)


def predict_batch(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(argmax codes, probabilities) for a stack of feature vectors."""
    probs, _ = _forward_batch(model, np.asarray(x, dtype=np.float64))
    return probs.argmax(axis=1), probs


def _params_obj(model: MlpModel) -> dict:
    """The parameters as JSON values, as model.json holds them and the digest covers them."""
    return {
        "layer_dims": list(model.layer_dims),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "class_names": list(CLASS_NAMES),
    }


def model_digest(model: MlpModel) -> str:
    """Stable content digest binding a conformal predictor to its model."""
    return sha256_of_obj(_params_obj(model))


def save_model(
    model: MlpModel,
    path: str | Path,
    train_config: TrainConfig | None = None,
    provenance: str | None = None,
) -> None:
    obj = {
        **_params_obj(model),
        "train_config": asdict(train_config) if train_config is not None else None,
        "provenance": provenance,
    }
    atomic_write_text(path, json.dumps(obj, sort_keys=True))


def load_model(path: str | Path) -> MlpModel:
    path = Path(path)
    obj = read_json(path)
    try:
        if (error := json_type_error(obj, {"layer_dims": "list[int]", "weights": "array", "biases": "array"})) is not None:
            raise TypeError(error)
        # output column k is class FaultClass(k): a file that names its columns otherwise is not this model's
        if obj["class_names"] != list(CLASS_NAMES):
            raise ValueError(f"class_names {json.dumps(obj['class_names'])} are not {json.dumps(CLASS_NAMES)}")
        return MlpModel(
            layer_dims=tuple(obj["layer_dims"]),
            weights=[np.asarray(w, dtype=np.float64) for w in obj["weights"]],
            biases=[np.asarray(b, dtype=np.float64) for b in obj["biases"]],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetIoError(f"{path} is not a valid model file: {exc}") from None
