"""Split-conformal calibration and adaptive prediction sets.

The conformity score of a labelled example is the cumulative probability
mass, over classes sorted by descending predicted probability, through and
including the true class. Calibration takes the finite-sample-corrected
quantile of those scores; prediction sets then accumulate classes until that
threshold is reached. Over exchangeable data the true class lands inside the
set with probability at least 1 - alpha.

The set-level guarantee is the thing to report to an operator: it is the
long-run fraction of sets containing the truth, not the probability that any
single prediction is correct. Per-class softmax probabilities are reported
alongside for ranking within the set, not as calibrated correctness odds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import DatasetIoError, FaultClass, PmDiagError, atomic_write_text, jsonl_text, read_json
from .model import MlpModel, RowError, forward, forward_rows, model_digest

PROB_SUM_TOL = 1e-9


class BadDistributionError(RowError):
    """Probability vector has a negative entry or does not sum to one."""


class EmptyCalibrationError(PmDiagError):
    """Calibration requires at least one labelled example."""


class DigestMismatchError(PmDiagError):
    """Predictor was calibrated against a different model."""


@dataclass(frozen=True)
class ConformalPredictor:
    """Calibrated threshold for building prediction sets at risk level alpha."""

    alpha: float
    qhat: float
    n_calibration: int
    model_digest: str

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0 < self.qhat <= 1:
            raise ValueError("qhat must be in (0, 1]")
        if self.n_calibration < 1:
            raise ValueError("n_calibration must be >= 1")


@dataclass(frozen=True)
class Diagnosis:
    """Operator-facing result: `predict_set`'s members plus the coverage guarantee."""

    source_id: str
    prediction_set: tuple[tuple[FaultClass, float], ...]
    alpha: float
    qhat: float

    @property
    def singleton(self) -> bool:
        return len(self.prediction_set) == 1

    @property
    def argmax_class(self) -> FaultClass:
        return self.prediction_set[0][0]


def _checked_probs(probs, ndim: int = 1) -> np.ndarray:
    """`probs` with `ndim` axes, each row along the last one a distribution over
    the classes; an error's `row` is the first bad row."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != ndim or p.shape[-1] != len(FaultClass):
        raise BadDistributionError(f"need {len(FaultClass)} probabilities, got shape {p.shape}")
    total = p.sum(axis=-1, keepdims=True)
    ok = np.isfinite(p).all(-1) & (p >= 0).all(-1) & (np.abs(total[..., 0] - 1.0) <= PROB_SUM_TOL)
    if not ok.all():
        row = int(np.argmin(ok.reshape(-1)))
        bad = p.reshape(-1, p.shape[-1])[row]
        if not np.isfinite(bad).all():
            raise BadDistributionError("non-finite probability entry", row)
        if (bad < 0).any():
            raise BadDistributionError("negative probability entry", row)
        raise BadDistributionError(f"probabilities sum to {float(bad.sum())!r}", row)
    # normalize so the full cumulative mass is exactly 1.0
    return p / total


def _descending_order(p: np.ndarray) -> np.ndarray:
    # stable sort on negated values: ties resolve to the lowest class code
    return np.argsort(-p, kind="stable")


def _aps_scores(probs, labels, ndim: int) -> np.ndarray:
    """`aps_score` of each row of `probs`, which has `ndim` axes, and its true class in `labels`."""
    p = _checked_probs(probs, ndim).reshape(-1, len(FaultClass))
    order = _descending_order(p)
    rank = (order == np.array([int(c) for c in labels])[:, None]).argmax(axis=1)
    after = np.arange(p.shape[1]) > rank[:, None]
    return 1.0 - np.where(after, np.take_along_axis(p, order, axis=1), 0.0).sum(axis=1)


def aps_score(probs, true_class: FaultClass) -> float:
    """Cumulative descending-sorted probability through the true class.

    Computed as one minus the mass of the classes ranked below the true
    class, which keeps the score in (0, 1] without clamping (a plain prefix
    cumsum can overshoot 1.0 by an ulp) and makes it exactly 1 when the
    true class sorts last. This is the one-row case of calibrate_probs.
    """
    return float(_aps_scores(probs, [true_class], 1)[0])


def quantile_threshold(scores, alpha: float) -> float:
    """Finite-sample-corrected score quantile.

    The k-th smallest score with k = ceil((n+1)(1-alpha)); clamps to 1.0
    when k exceeds n (maximal-set behavior for tiny calibration sets).
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise EmptyCalibrationError("no calibration scores")
    n = s.size
    k = math.ceil((n + 1) * (1.0 - alpha))
    if k > n:
        return 1.0
    return float(np.sort(s)[k - 1])


def calibrate_probs(scored, alpha: float, digest: str) -> ConformalPredictor:
    """Calibrate the set threshold on (probability vector, true FaultClass) pairs.

    `digest` is the `model_digest` of the model that gave the probabilities.
    The vectors are scored as one matrix: an error's `row` is the first bad pair.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    items = list(scored)
    if not items:
        raise EmptyCalibrationError("calibration set is empty")
    probs, labels = zip(*items)
    scores = _aps_scores(probs, labels, 2)
    return ConformalPredictor(
        alpha=alpha,
        qhat=quantile_threshold(scores, alpha),
        n_calibration=len(scores),
        model_digest=digest,
    )


def calibrate(model: MlpModel, calibration_set, alpha: float = 0.05) -> ConformalPredictor:
    """Calibrate on labelled (FeatureVector, FaultClass) pairs, scored by one `forward_rows` call."""
    items = list(calibration_set)
    x = np.stack([fv.values for fv, _ in items]) if items else np.empty((0, model.layer_dims[0]))
    return calibrate_probs(zip(forward_rows(model, x), (label for _, label in items)), alpha, model_digest(model))


def predict_sets(predictor: ConformalPredictor, probs) -> list:
    """`predict_set` of each row of an (n, classes) probability matrix."""
    return _sets(predictor.qhat, probs, 2)


def predict_set(predictor: ConformalPredictor, probs) -> tuple[tuple[FaultClass, float], ...]:
    """Smallest descending-probability prefix with cumulative mass >= qhat.

    Returns its (class, probability) members, argmax first. The argmax always
    enters, so the set is never empty; a larger qhat can only grow the set.
    """
    return _sets(predictor.qhat, probs, 1)[0]


def _sets(qhat: float, probs, ndim: int) -> list:
    raw = np.asarray(probs, dtype=np.float64)
    p = _checked_probs(raw, ndim).reshape(-1, len(FaultClass))
    order = _descending_order(p)
    cum = np.cumsum(np.take_along_axis(p, order, axis=1), axis=1)
    # the prefix through the first class whose cumulative mass reaches qhat
    sizes = np.clip((cum < qhat).sum(axis=1) + 1, 1, p.shape[1])
    members = np.take_along_axis(raw.reshape(p.shape), order, axis=1)
    return [
        tuple(zip(map(FaultClass, codes[:size]), values[:size]))
        for codes, values, size in zip(order.tolist(), members.tolist(), sizes.tolist())
    ]


def diagnoses(predictor: ConformalPredictor, source_ids, probs) -> list[Diagnosis]:
    """A calibrated prediction set per manoeuvre: `source_ids[i]` and row i of
    an (n, classes) probability matrix."""
    return [
        Diagnosis(source_id, members, predictor.alpha, predictor.qhat)
        for source_id, members in zip(source_ids, predict_sets(predictor, probs))
    ]


def diagnose(predictor: ConformalPredictor, model: MlpModel, feature) -> Diagnosis:
    """Classify one feature vector and wrap it in a calibrated prediction set:
    the one-row case of `model.forward_rows` and `diagnoses`."""
    return diagnoses(predictor, [feature.source_id], forward(model, feature.values)[None, :])[0]


def diagnosis_to_obj(d: Diagnosis, label: FaultClass | None = None) -> dict:
    obj = {
        "source_id": d.source_id,
        "prediction_set": [
            {"class": cls.name, "probability": prob} for cls, prob in d.prediction_set
        ],
        "alpha": d.alpha,
        "qhat": d.qhat,
        "singleton": d.singleton,
        "argmax_class": d.argmax_class.name,
    }
    if label is not None:
        obj["label"] = label.name
    return obj


def diagnoses_text(rows) -> str:
    """The diagnoses.jsonl lines of (true FaultClass or None, Diagnosis)
    rows, one object per manoeuvre (see core.jsonl_text); `label` is
    written where the true class is known."""
    return jsonl_text(diagnosis_to_obj(d, label) for label, d in rows)


def save_diagnoses(rows, path: str | Path) -> None:
    """Write `diagnoses_text(rows)` (atomic)."""
    atomic_write_text(path, diagnoses_text(rows))


def save_predictor(predictor: ConformalPredictor, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(asdict(predictor), sort_keys=True, indent=2) + "\n")


def load_predictor(path: str | Path) -> ConformalPredictor:
    path = Path(path)
    obj = read_json(path)
    try:
        return ConformalPredictor(
            alpha=float(obj["alpha"]),
            qhat=float(obj["qhat"]),
            n_calibration=int(obj["n_calibration"]),
            model_digest=str(obj["model_digest"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetIoError(f"{path} is not a valid predictor file: {exc}") from None


def check_digest(predictor: ConformalPredictor, model: MlpModel) -> None:
    """Raise unless the predictor was calibrated against this exact model."""
    digest = model_digest(model)
    if digest != predictor.model_digest:
        raise DigestMismatchError(
            f"predictor calibrated for {predictor.model_digest[:12]}..., "
            f"model digest is {digest[:12]}..."
        )
