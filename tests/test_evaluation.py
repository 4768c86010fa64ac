import collections
import json
from dataclasses import asdict

import numpy as np
import pytest

from pmdiag import conformal, model as mlp
from pmdiag.core import Dataset, FaultClass, Manoeuvre
from pmdiag.evaluation import (
    ClassTooSmallError,
    SplitSpec,
    UnlabelledError,
    binary_metrics,
    build_metrics,
    confusion_matrix,
    coverage_eval,
    split_calibration,
    stratified_split,
    write_report,
)
from pmdiag.evaluation import TestTooSmallError as SplitTooSmallError
from pmdiag.model import MlpModel

from conftest import MJ_COUNTS, calibrated, diagnosed, rows_of


def labelled_dataset(counts, seed=0):
    rng = np.random.default_rng(seed)
    manoeuvres = []
    i = 0
    for cls, n in counts.items():
        for _ in range(n):
            samples = np.abs(rng.normal(1.0, 0.1, 64))
            manoeuvres.append(
                Manoeuvre(f"m{i}", "MJ", float(i), samples, 100.0, label=cls)
            )
            i += 1
    return Dataset(manoeuvres=tuple(manoeuvres), provenance="test")


def label_counts(manoeuvres, positions):
    """Class counts of the manoeuvres at `positions`."""
    return dict(collections.Counter(manoeuvres[p].label for p in positions))


def assert_partition(first, second, n):
    """Two sorted lists of positions, disjoint, that together cover range(n)."""
    assert first == sorted(first) and second == sorted(second)
    assert set(first).isdisjoint(second)
    assert set(first) | set(second) == set(range(n))


class TestStratifiedSplit:
    def test_mj_counts_floor_arithmetic(self):
        ds = labelled_dataset(MJ_COUNTS)
        train, test = stratified_split(ds, SplitSpec(seed=3))
        assert label_counts(ds.manoeuvres, train) == {
            FaultClass.Nominal: 284,
            FaultClass.Obstacle: 219,
            FaultClass.Friction: 284,
            FaultClass.PowerSupply: 100,
        }
        assert label_counts(ds.manoeuvres, test) == {
            FaultClass.Nominal: 72,
            FaultClass.Obstacle: 55,
            FaultClass.Friction: 71,
            FaultClass.PowerSupply: 25,
        }

    def test_partition(self):
        ds = labelled_dataset({FaultClass.Nominal: 20, FaultClass.Obstacle: 13})
        train, test = stratified_split(ds, SplitSpec(seed=1))
        assert_partition(train, test, len(ds))

    def test_deterministic(self):
        ds = labelled_dataset({FaultClass.Nominal: 20, FaultClass.Friction: 20})
        a1, b1 = stratified_split(ds, SplitSpec(seed=7))
        a2, b2 = stratified_split(ds, SplitSpec(seed=7))
        assert a1 == a2
        assert b1 == b2

    def test_plain_list_gives_the_positions_of_a_dataset(self):
        ds = labelled_dataset({FaultClass.Nominal: 30, FaultClass.Obstacle: 17, FaultClass.Friction: 9}, seed=4)
        for seed in range(5):
            train, test = stratified_split(list(ds), SplitSpec(seed=seed))
            assert (train, test) == stratified_split(ds, SplitSpec(seed=seed))
            assert_partition(train, test, len(ds))

    def test_class_too_small(self):
        ds = labelled_dataset({FaultClass.Nominal: 5, FaultClass.Obstacle: 1})
        with pytest.raises(ClassTooSmallError):
            stratified_split(ds, SplitSpec(seed=1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ClassTooSmallError, match="^no manoeuvres to split$"):
            stratified_split(Dataset(manoeuvres=(), provenance="x"), SplitSpec(seed=1))

    def test_unlabelled_rejected(self):
        m = Manoeuvre("u", "MJ", 0.0, np.ones(64), 100.0)
        ds = Dataset(manoeuvres=(m,), provenance="x")
        with pytest.raises(UnlabelledError, match="^manoeuvre 'u' is unlabelled; splits need labels$"):
            stratified_split(ds, SplitSpec(seed=1))


class TestSplitCalibration:
    def test_half_split_counts(self):
        ds = labelled_dataset(MJ_COUNTS)
        _, test_at = stratified_split(ds, SplitSpec(seed=3))
        assert len(test_at) == 223
        test = [ds.manoeuvres[p] for p in test_at]
        cal, hold = split_calibration(test, SplitSpec(seed=3))
        assert len(cal) == 110
        assert len(hold) == 113
        assert label_counts(test, cal) == {
            FaultClass.Nominal: 36,
            FaultClass.Obstacle: 27,
            FaultClass.Friction: 35,
            FaultClass.PowerSupply: 12,
        }

    def test_partition(self):
        ds = labelled_dataset({FaultClass.Nominal: 9, FaultClass.Obstacle: 8})
        cal, hold = split_calibration(ds, SplitSpec(seed=2))
        assert_partition(cal, hold, len(ds))

    def test_plain_list_gives_the_positions_of_a_dataset(self):
        ds = labelled_dataset({FaultClass.Nominal: 11, FaultClass.Obstacle: 8, FaultClass.PowerSupply: 3}, seed=6)
        for seed in range(5):
            cal, hold = split_calibration(list(ds), SplitSpec(seed=seed))
            assert (cal, hold) == split_calibration(ds, SplitSpec(seed=seed))
            assert_partition(cal, hold, len(ds))

    def test_too_small(self):
        ds = labelled_dataset({FaultClass.Nominal: 2})
        with pytest.raises(SplitTooSmallError):
            split_calibration(ds, SplitSpec(seed=1))


def counted_binary_metrics(pairs):
    """(precision, fpr, fnr), counted pair by pair."""
    tp = fp = tn = fn = 0
    for predicted, true in pairs:
        pred_pos, true_pos = predicted != FaultClass.Nominal, true != FaultClass.Nominal
        tp += pred_pos and true_pos
        fp += pred_pos and not true_pos
        fn += true_pos and not pred_pos
        tn += not (pred_pos or true_pos)
    return (
        tp / (tp + fp) if tp + fp else 1.0,
        fp / (fp + tn) if fp + tn else 0.0,
        fn / (fn + tp) if fn + tp else 0.0,
    )


def drawn_pairs(seed):
    """A few (predicted, true) pairs over a few classes: they often leave a
    denominator empty."""
    rng = np.random.default_rng(seed)
    classes = rng.choice(len(FaultClass), size=int(rng.integers(1, 6)), replace=False)
    return [(FaultClass(int(p)), FaultClass(int(t))) for p, t in rng.choice(classes, size=(int(rng.integers(1, 40)), 2))]


N, O = FaultClass.Nominal, FaultClass.Obstacle
EMPTY_DENOMINATORS = {
    "true_negative": [(N, N)],
    "true_positive": [(O, O)],
    "false_negative": [(N, O)],
    "false_positive": [(O, N)],
    "nothing_predicted_positive": [(N, N), (N, O)],
    "everything_predicted_positive": [(O, O), (O, N)],
}


class TestBinaryMetrics:
    @pytest.mark.parametrize(
        "pairs",
        [*EMPTY_DENOMINATORS.values(), *map(drawn_pairs, range(30))],
        ids=[*EMPTY_DENOMINATORS, *(f"drawn{seed}" for seed in range(30))],
    )
    def test_matches_pair_by_pair_count(self, pairs):
        expected = counted_binary_metrics(pairs)
        assert binary_metrics(confusion_matrix(pairs)) == expected
        report = build_metrics(pairs, coverage=1.0, mean_set_size=1.0)
        assert (report.precision, report.fpr, report.fnr) == expected

    def test_all_correct(self):
        pairs = [
            (FaultClass.Nominal, FaultClass.Nominal),
            (FaultClass.Obstacle, FaultClass.Obstacle),
            (FaultClass.Friction, FaultClass.Friction),
        ]
        assert binary_metrics(confusion_matrix(pairs)) == (1.0, 0.0, 0.0)

    def test_one_missed_anomaly_among_855(self):
        pairs = [(FaultClass.Obstacle, FaultClass.Obstacle)] * 854
        pairs.append((FaultClass.Nominal, FaultClass.Obstacle))
        precision, fpr, fnr = binary_metrics(confusion_matrix(pairs))
        assert precision == 1.0
        assert fpr == 0.0
        assert fnr == 1 / 855
        assert abs(fnr - 0.0012) < 1e-4

    def test_zero_predicted_positives(self):
        pairs = [(FaultClass.Nominal, FaultClass.Obstacle)] * 3
        precision, fpr, fnr = binary_metrics(confusion_matrix(pairs))
        assert precision == 1.0
        assert fnr == 1.0

    def test_cross_anomaly_confusion_counts_as_positive(self):
        # friction predicted as obstacle is still a detected anomaly
        pairs = [(FaultClass.Obstacle, FaultClass.Friction)]
        precision, fpr, fnr = binary_metrics(confusion_matrix(pairs))
        assert (precision, fpr, fnr) == (1.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binary_metrics(confusion_matrix([]))
        with pytest.raises(ValueError):
            build_metrics([], coverage=1.0, mean_set_size=1.0)


class TestConfusion:
    def test_row_sums_are_true_counts(self):
        rng = np.random.default_rng(0)
        pairs = [
            (FaultClass(int(rng.integers(0, 5))), FaultClass(int(rng.integers(0, 5))))
            for _ in range(300)
        ]
        conf = confusion_matrix(pairs)
        for cls in FaultClass:
            assert conf[int(cls)].sum() == sum(1 for _, t in pairs if t is cls)

    def test_metric_identity_with_confusion(self):
        rng = np.random.default_rng(1)
        pairs = [
            (FaultClass(int(rng.integers(0, 5))), FaultClass(int(rng.integers(0, 5))))
            for _ in range(500)
        ]
        precision, fpr, fnr = binary_metrics(confusion_matrix(pairs))
        conf = confusion_matrix(pairs)
        tp = conf[1:, 1:].sum()
        fp = conf[0, 1:].sum()
        tn = conf[0, 0]
        fn = conf[1:, 0].sum()
        assert precision == tp / (tp + fp)
        assert fpr == fp / (fp + tn)
        assert fnr == fn / (fn + tp)


class TestCoverage:
    def test_maximal_predictor(self, small_run):
        flat = MlpModel((128, 5), [np.zeros((128, 5))], [np.zeros(5)])
        predictor = conformal.ConformalPredictor(
            alpha=0.05, qhat=1.0, n_calibration=10, model_digest="x"
        )
        hold = small_run["holdout"]
        coverage, mean_size = coverage_eval(diagnosed(predictor, flat, hold, rows_of(small_run, hold)))
        assert coverage == 1.0
        assert mean_size == 5.0

    def test_tiny_qhat_gives_singletons(self, small_run):
        predictor = conformal.ConformalPredictor(
            alpha=0.05, qhat=1e-6, n_calibration=10, model_digest="x"
        )
        mdl = small_run["model"]
        hold = small_run["holdout"]
        coverage, mean_size = coverage_eval(diagnosed(predictor, mdl, hold, rows_of(small_run, hold)))
        assert mean_size == 1.0
        codes = mlp.forward_rows(mdl, rows_of(small_run, hold)).argmax(axis=1)
        correct = sum(FaultClass(int(code)) is m.label for code, m in zip(codes, hold))
        assert coverage == correct / len(hold)


class TestReports:
    def test_report_written_with_stable_bytes(self, tmp_path):
        obj = {"b": 1, "a": {"y": 2.5, "x": [1, 2]}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(obj, p1)
        write_report(obj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        import json

        assert json.loads(p1.read_text()) == obj

    def test_diagnoses_jsonl(self, tmp_path, small_run):
        cal, hold = small_run["calibration"], small_run["holdout"]
        predictor = calibrated(small_run["model"], cal, rows_of(small_run, cal))
        holdout = diagnosed(predictor, small_run["model"], hold, rows_of(small_run, hold))
        # every other row as from unlabelled field data
        rows = [(label if k % 2 else None, d) for k, (label, d) in enumerate(holdout)]
        path = tmp_path / "diagnoses.jsonl"
        conformal.save_diagnoses(rows, path)
        objs = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(objs) == len(rows)
        for (label, d), obj in zip(rows, objs):
            assert obj["source_id"] == d.source_id
            assert obj["argmax_class"] == d.argmax_class.name
            assert [(e["class"], e["probability"]) for e in obj["prediction_set"]] == [
                (cls.name, prob) for cls, prob in d.prediction_set
            ]
            if label is None:
                assert "label" not in obj
            else:
                assert obj["label"] == label.name

    def test_metrics_report_fields(self, small_run):
        pairs = [(FaultClass.Nominal, FaultClass.Nominal)] * 4
        mr = build_metrics(pairs, coverage=0.95, mean_set_size=1.5)
        obj = json.loads(json.dumps(asdict(mr)))
        for key in ("precision", "fpr", "fnr", "confusion", "coverage", "mean_set_size"):
            assert key in obj
        assert 0 <= obj["precision"] <= 1
        assert len(obj["confusion"]) == 5
