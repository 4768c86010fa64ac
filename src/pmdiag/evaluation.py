"""Dataset splitting, classification metrics, coverage, and report files.

Binary metrics take the anomaly-vs-nominal view: any non-Nominal prediction
or label counts as positive. The full multiclass confusion matrix is kept
alongside for detail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FaultClass, PmDiagError, atomic_write_text

N_CLASSES = len(FaultClass)


class ClassTooSmallError(PmDiagError):
    """A class has too few members to split."""


class TestTooSmallError(PmDiagError):
    """The test set is too small to split into calibration and holdout."""


class UnlabelledError(PmDiagError, ValueError):
    """A manoeuvre to split carries no label."""


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.8
    calibration_frac_of_test: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.train_frac < 1:
            raise ValueError("train_frac must be in (0, 1)")
        if not 0 < self.calibration_frac_of_test < 1:
            raise ValueError("calibration_frac_of_test must be in (0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    fpr: float
    fnr: float
    confusion: tuple[tuple[int, ...], ...]
    coverage: float
    mean_set_size: float
    per_class: dict


def _grouped_indices(ids, labels) -> "dict[FaultClass, list[int]]":
    groups: dict[FaultClass, list[int]] = {}
    for i, (mid, label) in enumerate(zip(ids, labels, strict=True)):
        if label is None:
            raise UnlabelledError(f"manoeuvre {mid!r} is unlabelled; splits need labels")
        groups.setdefault(label, []).append(i)
    return groups


def _take_split(
    ids, labels, frac: float, rng: np.random.Generator, min_per_class: int
) -> tuple[list[int], list[int]]:
    if not len(labels):
        raise ClassTooSmallError("no manoeuvres to split")
    groups = _grouped_indices(ids, labels)
    first, second = [], []
    for cls in sorted(groups, key=int):
        idx = groups[cls]
        if len(idx) < min_per_class:
            raise ClassTooSmallError(f"class {cls.name} has only {len(idx)} members")
        perm = rng.permutation(len(idx))
        n_first = math.floor(len(idx) * frac)
        first += (idx[j] for j in perm[:n_first])
        second += (idx[j] for j in perm[n_first:])
    return sorted(first), sorted(second)


def stratified_split(ids, labels, spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Per-label seeded split of manoeuvres, given as their ids and their
    FaultClass labels (an id names an unlabelled one): floor(n_c *
    train_frac) to train, rest to test, as sorted positions."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    return _take_split(ids, labels, spec.train_frac, rng, min_per_class=2)


def split_calibration(ids, labels, spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Stratified seeded split of the test manoeuvres, given as their ids
    and labels, into calibration and holdout, as sorted positions into them."""
    if len(labels) < 4:
        raise TestTooSmallError(f"test set has only {len(labels)} manoeuvres")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(1,)))
    return _take_split(ids, labels, spec.calibration_frac_of_test, rng, min_per_class=1)


def binary_metrics(conf: np.ndarray) -> tuple[float, float, float]:
    """(precision, fpr, fnr) under the anomaly-vs-nominal view, of the
    predicted and true classes that a `confusion_matrix` counts.

    Precision is 1.0 when nothing is predicted positive; FPR and FNR are 0
    when their denominators are empty.
    """
    if not conf.any():
        raise ValueError("predictions must be nonempty")
    # rows are true classes, columns predicted ones
    nominal = int(FaultClass.Nominal)
    tn = int(conf[nominal, nominal])
    fp = int(conf[nominal].sum()) - tn
    fn = int(conf[:, nominal].sum()) - tn
    tp = int(conf.sum()) - tn - fp - fn
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    fpr = fp / (fp + tn) if fp + tn > 0 else 0.0
    fnr = fn / (fn + tp) if fn + tp > 0 else 0.0
    return precision, fpr, fnr


def confusion_matrix(predicted, true) -> np.ndarray:
    """5x5 count matrix of the class codes `predicted` and `true`, one pair
    per row: rows true class, columns predicted class."""
    cells = np.asarray(true, dtype=np.int64) * N_CLASSES + np.asarray(predicted, dtype=np.int64)
    return np.bincount(cells, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


def per_class_metrics(conf: np.ndarray) -> dict:
    """Per-class precision/recall; empty denominators report 1.0."""
    out = {}
    for cls in FaultClass:
        col = int(conf[:, int(cls)].sum())
        row = int(conf[int(cls), :].sum())
        diag = int(conf[int(cls), int(cls)])
        out[cls.name] = {
            "precision": diag / col if col > 0 else 1.0,
            "recall": diag / row if row > 0 else 1.0,
            "support": row,
        }
    return out


def coverage_eval(diagnosed, labels) -> tuple[float, float]:
    """Empirical coverage and mean set size of the rows of a
    conformal.Diagnoses and their true classes `labels`. A row is covered
    when its true class is a member of its prediction set.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("rows must be nonempty")
    in_set = np.arange(N_CLASSES) < diagnosed.sizes[:, None]
    covered = int((in_set & (diagnosed.classes == np.asarray(labels, dtype=np.int64)[:, None])).sum())
    return covered / n, int(diagnosed.sizes.sum()) / n


def build_metrics(predicted, true, coverage: float, mean_set_size: float) -> MetricsReport:
    """The metrics of the class codes `predicted` and `true`, one pair per row."""
    conf = confusion_matrix(predicted, true)
    precision, fpr, fnr = binary_metrics(conf)
    return MetricsReport(
        precision=precision,
        fpr=fpr,
        fnr=fnr,
        confusion=tuple(tuple(int(v) for v in row) for row in conf),
        coverage=coverage,
        mean_set_size=mean_set_size,
        per_class=per_class_metrics(conf),
    )


def write_report(report_obj: dict, path: str | Path) -> None:
    """Write report.json with stable key order (byte-identical reruns)."""
    atomic_write_text(path, json.dumps(report_obj, sort_keys=True, indent=2) + "\n")
