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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .core import DatasetIoError, FaultClass, PmDiagError, atomic_write_text, json_type_error, read_json
from .model import CLASS_NAMES, MlpModel, RowError, model_digest

PROB_SUM_TOL = 1e-9


class BadDistributionError(RowError):
    """Probability vector has a negative entry or does not sum to one."""


class EmptyCalibrationError(PmDiagError):
    """Calibration requires at least one labelled example."""


class DigestMismatchError(PmDiagError):
    """Predictor was calibrated against a different model."""


@dataclass(frozen=True)
class ConformalConfig:
    alpha: float = 0.05

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")


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


@dataclass(frozen=True, eq=False)
class Diagnoses:
    """Operator-facing result: the prediction sets of n manoeuvres, row i
    for `source_ids[i]`, plus the coverage guarantee. Row i of `classes`
    holds the class codes by descending probability, ties to the lowest
    code, and row i of `probabilities` their probabilities in that order;
    the set is the first `sizes[i]` of them, argmax first."""

    source_ids: list
    classes: np.ndarray
    probabilities: np.ndarray
    sizes: np.ndarray
    alpha: float
    qhat: float

    def __getitem__(self, rows: slice) -> "Diagnoses":
        return Diagnoses(self.source_ids[rows], self.classes[rows], self.probabilities[rows], self.sizes[rows],
                         self.alpha, self.qhat)

    def sets(self):
        """Yield each manoeuvre's (source id, class names, probabilities) as
        Python values, one list entry per set member, argmax first: the form
        the text writers format."""
        for source_id, classes, probabilities, size in zip(self.source_ids, self.classes.tolist(),
                                                           self.probabilities.tolist(), self.sizes.tolist()):
            yield source_id, [CLASS_NAMES[c] for c in classes[:size]], probabilities[:size]


def _checked_probs(probs) -> np.ndarray:
    """`probs` as an (n, classes) matrix, each row a distribution over the
    classes; an error's `row` is the first bad row."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != len(FaultClass):
        raise BadDistributionError(f"need {len(FaultClass)} probabilities, got shape {p.shape}")
    total = p.sum(axis=1, keepdims=True)
    ok = np.isfinite(p).all(1) & (p >= 0).all(1) & (np.abs(total[:, 0] - 1.0) <= PROB_SUM_TOL)
    if not ok.all():
        row = int(np.argmin(ok))
        bad = p[row]
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


def _aps_scores(probs, labels) -> np.ndarray:
    """The APS score of each row of an (n, classes) probability matrix and
    its true class in `labels`: the cumulative descending-sorted probability
    through the true class, computed as one minus the mass of the classes
    ranked below it. That keeps the score in (0, 1] without clamping (a plain
    prefix cumsum can overshoot 1.0 by an ulp) and makes it exactly 1 when
    the true class sorts last."""
    p = _checked_probs(probs)
    order = _descending_order(p)
    rank = (order == np.array([int(c) for c in labels])[:, None]).argmax(axis=1)
    after = np.arange(p.shape[1]) > rank[:, None]
    return 1.0 - np.where(after, np.take_along_axis(p, order, axis=1), 0.0).sum(axis=1)


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


def calibrate_probs(probs, labels, cfg: ConformalConfig, digest: str) -> ConformalPredictor:
    """Calibrate the set threshold at cfg.alpha on the rows of an (n, classes)
    probability matrix and their true FaultClass `labels`.

    `digest` is the `model_digest` of the model that gave the probabilities.
    An error's `row` is the first bad row.
    """
    if len(probs) != len(labels):
        raise ValueError(f"{len(probs)} probability rows for {len(labels)} labels")
    if len(labels) == 0:
        raise EmptyCalibrationError("calibration set is empty")
    scores = _aps_scores(probs, labels)
    return ConformalPredictor(
        alpha=cfg.alpha,
        qhat=quantile_threshold(scores, cfg.alpha),
        n_calibration=len(scores),
        model_digest=digest,
    )


def diagnoses(predictor: ConformalPredictor, source_ids, probs) -> Diagnoses:
    """The prediction set of manoeuvre `source_ids[i]` from row i of an
    (n, classes) probability matrix: the smallest descending-probability
    prefix with cumulative mass >= qhat. The argmax always enters, so a set
    is never empty; a larger qhat can only grow a set."""
    raw = np.asarray(probs, dtype=np.float64)
    p = _checked_probs(raw)
    order = _descending_order(p)
    cum = np.cumsum(np.take_along_axis(p, order, axis=1), axis=1)
    # the prefix through the first class whose cumulative mass reaches qhat
    sizes = np.clip((cum < predictor.qhat).sum(axis=1) + 1, 1, p.shape[1])
    return Diagnoses(list(source_ids), order, np.take_along_axis(raw, order, axis=1), sizes,
                     predictor.alpha, predictor.qhat)


def diagnoses_lines(d: Diagnoses, labels):
    """Yield the diagnoses.jsonl line of each manoeuvre of `d`, with its true
    FaultClass in `labels` written as `label` where it is not None.

    Each line has the bytes json.dumps gives its object, formatted from a
    fixed template: a class name needs no escape, and a probability, finite
    by `diagnoses`, is written as its repr, as json.dumps writes a float.
    """
    tail = f'], "alpha": {json.dumps(d.alpha)}, "qhat": {json.dumps(d.qhat)}, "singleton": '
    for (source_id, names, probabilities), label in zip(d.sets(), labels):
        members = ", ".join(f'{{"class": "{name}", "probability": {prob!r}}}'
                            for name, prob in zip(names, probabilities))
        end = "" if label is None else f', "label": "{label.name}"'
        yield (f'{{"source_id": {json.dumps(source_id)}, "prediction_set": [{members}{tail}'
               f'{"true" if len(names) == 1 else "false"}, "argmax_class": "{names[0]}"{end}}}\n')


def save_predictor(predictor: ConformalPredictor, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(asdict(predictor), sort_keys=True, indent=2) + "\n")


def load_predictor(path: str | Path) -> ConformalPredictor:
    path = Path(path)
    obj = read_json(path)
    try:
        if (error := json_type_error(obj, {f.name: f.type for f in fields(ConformalPredictor)})) is not None:
            raise TypeError(error)
        return ConformalPredictor(
            alpha=float(obj["alpha"]),
            qhat=float(obj["qhat"]),
            n_calibration=obj["n_calibration"],
            model_digest=obj["model_digest"],
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
