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

from conftest import MJ_COUNTS, calibrated, diagnosed, members, rows_of


def columns(pairs):
    """The predicted classes and the true classes of (predicted, true) pairs."""
    return [predicted for predicted, _ in pairs], [true for _, true in pairs]


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


def id_labels(manoeuvres):
    """The ids and the labels of manoeuvres, the rows a split takes."""
    return [m.id for m in manoeuvres], [m.label for m in manoeuvres]


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
        train, test = stratified_split(*id_labels(ds), SplitSpec(seed=3))
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
        train, test = stratified_split(*id_labels(ds), SplitSpec(seed=1))
        assert_partition(train, test, len(ds))

    def test_deterministic(self):
        ds = labelled_dataset({FaultClass.Nominal: 20, FaultClass.Friction: 20})
        a1, b1 = stratified_split(*id_labels(ds), SplitSpec(seed=7))
        a2, b2 = stratified_split(*id_labels(ds), SplitSpec(seed=7))
        assert a1 == a2
        assert b1 == b2

    def test_plain_list_gives_the_positions_of_a_dataset(self):
        ds = labelled_dataset({FaultClass.Nominal: 30, FaultClass.Obstacle: 17, FaultClass.Friction: 9}, seed=4)
        for seed in range(5):
            train, test = stratified_split(*id_labels(ds), SplitSpec(seed=seed))
            assert (train, test) == stratified_split(*map(tuple, id_labels(ds)), SplitSpec(seed=seed))
            assert_partition(train, test, len(ds))

    def test_class_too_small(self):
        ds = labelled_dataset({FaultClass.Nominal: 5, FaultClass.Obstacle: 1})
        with pytest.raises(ClassTooSmallError):
            stratified_split(*id_labels(ds), SplitSpec(seed=1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ClassTooSmallError, match="^no manoeuvres to split$"):
            stratified_split(*id_labels(Dataset(manoeuvres=(), provenance="x")), SplitSpec(seed=1))

    def test_unlabelled_rejected(self):
        m = Manoeuvre("u", "MJ", 0.0, np.ones(64), 100.0)
        ds = Dataset(manoeuvres=(m,), provenance="x")
        with pytest.raises(UnlabelledError, match="^manoeuvre 'u' is unlabelled; splits need labels$"):
            stratified_split(*id_labels(ds), SplitSpec(seed=1))


class TestSplitCalibration:
    def test_half_split_counts(self):
        ds = labelled_dataset(MJ_COUNTS)
        _, test_at = stratified_split(*id_labels(ds), SplitSpec(seed=3))
        assert len(test_at) == 223
        test = [ds.manoeuvres[p] for p in test_at]
        cal, hold = split_calibration(*id_labels(test), SplitSpec(seed=3))
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
        cal, hold = split_calibration(*id_labels(ds), SplitSpec(seed=2))
        assert_partition(cal, hold, len(ds))

    def test_plain_list_gives_the_positions_of_a_dataset(self):
        ds = labelled_dataset({FaultClass.Nominal: 11, FaultClass.Obstacle: 8, FaultClass.PowerSupply: 3}, seed=6)
        for seed in range(5):
            cal, hold = split_calibration(*id_labels(ds), SplitSpec(seed=seed))
            assert (cal, hold) == split_calibration(*map(tuple, id_labels(ds)), SplitSpec(seed=seed))
            assert_partition(cal, hold, len(ds))

    def test_too_small(self):
        ds = labelled_dataset({FaultClass.Nominal: 2})
        with pytest.raises(SplitTooSmallError):
            split_calibration(*id_labels(ds), SplitSpec(seed=1))


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
        assert binary_metrics(confusion_matrix(*columns(pairs))) == expected
        report = build_metrics(*columns(pairs), coverage=1.0, mean_set_size=1.0)
        assert (report.precision, report.fpr, report.fnr) == expected

    def test_all_correct(self):
        pairs = [
            (FaultClass.Nominal, FaultClass.Nominal),
            (FaultClass.Obstacle, FaultClass.Obstacle),
            (FaultClass.Friction, FaultClass.Friction),
        ]
        assert binary_metrics(confusion_matrix(*columns(pairs))) == (1.0, 0.0, 0.0)

    def test_one_missed_anomaly_among_855(self):
        pairs = [(FaultClass.Obstacle, FaultClass.Obstacle)] * 854
        pairs.append((FaultClass.Nominal, FaultClass.Obstacle))
        precision, fpr, fnr = binary_metrics(confusion_matrix(*columns(pairs)))
        assert precision == 1.0
        assert fpr == 0.0
        assert fnr == 1 / 855
        assert abs(fnr - 0.0012) < 1e-4

    def test_zero_predicted_positives(self):
        pairs = [(FaultClass.Nominal, FaultClass.Obstacle)] * 3
        precision, fpr, fnr = binary_metrics(confusion_matrix(*columns(pairs)))
        assert precision == 1.0
        assert fnr == 1.0

    def test_cross_anomaly_confusion_counts_as_positive(self):
        # friction predicted as obstacle is still a detected anomaly
        pairs = [(FaultClass.Obstacle, FaultClass.Friction)]
        precision, fpr, fnr = binary_metrics(confusion_matrix(*columns(pairs)))
        assert (precision, fpr, fnr) == (1.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binary_metrics(confusion_matrix([], []))
        with pytest.raises(ValueError):
            build_metrics([], [], coverage=1.0, mean_set_size=1.0)


class TestConfusion:
    def test_row_sums_are_true_counts(self):
        rng = np.random.default_rng(0)
        pairs = [
            (FaultClass(int(rng.integers(0, 5))), FaultClass(int(rng.integers(0, 5))))
            for _ in range(300)
        ]
        conf = confusion_matrix(*columns(pairs))
        for cls in FaultClass:
            assert conf[int(cls)].sum() == sum(1 for _, t in pairs if t is cls)

    def test_metric_identity_with_confusion(self):
        rng = np.random.default_rng(1)
        pairs = [
            (FaultClass(int(rng.integers(0, 5))), FaultClass(int(rng.integers(0, 5))))
            for _ in range(500)
        ]
        precision, fpr, fnr = binary_metrics(confusion_matrix(*columns(pairs)))
        conf = confusion_matrix(*columns(pairs))
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
        coverage, mean_size = coverage_eval(diagnosed(predictor, flat, hold, rows_of(small_run, hold)),
                                            [m.label for m in hold])
        assert coverage == 1.0
        assert mean_size == 5.0

    def test_tiny_qhat_gives_singletons(self, small_run):
        predictor = conformal.ConformalPredictor(
            alpha=0.05, qhat=1e-6, n_calibration=10, model_digest="x"
        )
        mdl = small_run["model"]
        hold = small_run["holdout"]
        coverage, mean_size = coverage_eval(diagnosed(predictor, mdl, hold, rows_of(small_run, hold)),
                                            [m.label for m in hold])
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

    def test_diagnoses_jsonl(self, small_run):
        cal, hold = small_run["calibration"], small_run["holdout"]
        predictor = calibrated(small_run["model"], cal, rows_of(small_run, cal))
        d = diagnosed(predictor, small_run["model"], hold, rows_of(small_run, hold))
        # every other row as from unlabelled field data
        labels = [m.label if k % 2 else None for k, m in enumerate(hold)]
        objs = [json.loads(line) for line in conformal.diagnoses_lines(d, labels)]
        assert len(objs) == len(hold)
        for m, label, prediction_set, obj in zip(hold, labels, members(d), objs):
            assert obj["source_id"] == m.id
            assert obj["argmax_class"] == prediction_set[0][0].name
            assert [(e["class"], e["probability"]) for e in obj["prediction_set"]] == [
                (cls.name, prob) for cls, prob in prediction_set
            ]
            if label is None:
                assert "label" not in obj
            else:
                assert obj["label"] == label.name

    def test_metrics_report_fields(self, small_run):
        pairs = [(FaultClass.Nominal, FaultClass.Nominal)] * 4
        mr = build_metrics(*columns(pairs), coverage=0.95, mean_set_size=1.5)
        obj = json.loads(json.dumps(asdict(mr)))
        for key in ("precision", "fpr", "fnr", "confusion", "coverage", "mean_set_size"):
            assert key in obj
        assert 0 <= obj["precision"] <= 1
        assert len(obj["confusion"]) == 5


def brute_force_diagnosis(row, qhat):
    """One row's set, one class at a time: the class codes by descending
    normalized probability, ties to the lowest code, accumulated until the
    mass reaches qhat (all of them if it never does)."""
    p = row / row.sum()
    order = sorted(range(len(row)), key=lambda c: (-p[c], c))
    mass, size = 0.0, 0
    for c in order:
        mass += p[c]
        size += 1
        if mass >= qhat:
            break
    return order, size


class TestBatchedOracle:
    """The array path of conformal.diagnoses, coverage_eval and the
    confusion matrix against a per-row loop, on rows with tied entries."""

    @staticmethod
    def rows(seed):
        rng = np.random.default_rng(seed)
        ties = rng.integers(0, 4, size=(150, 5)).astype(np.float64)
        ties[ties.sum(axis=1) == 0, 0] = 1.0
        drawn = rng.dirichlet(np.full(5, 0.5), size=150)
        drawn[:50, 3] = drawn[:50, 1]  # exact ties between drawn entries
        probs = np.concatenate([ties, drawn])
        probs /= probs.sum(axis=1, keepdims=True)
        return probs, [FaultClass(int(c)) for c in rng.integers(0, 5, size=len(probs))]

    @pytest.mark.parametrize("seed", range(4))
    def test_array_path_equals_per_row_loop(self, seed):
        probs, labels = self.rows(seed)
        tops = probs.max(axis=1) / probs.sum(axis=1)
        # 1.0, and just above one row's top probability, which then needs a second class
        for qhat in (1.0, *(float(np.nextafter(tops[k], 2.0)) for k in (0, 7, 160, 299))):
            predictor = conformal.ConformalPredictor(alpha=0.1, qhat=min(qhat, 1.0), n_calibration=9, model_digest="x")
            d = conformal.diagnoses(predictor, [f"m{k}" for k in range(len(probs))], probs)
            expected = [brute_force_diagnosis(row, predictor.qhat) for row in probs]
            assert d.classes.tolist() == [order for order, _ in expected]
            assert d.sizes.tolist() == [size for _, size in expected]
            assert members(d) == [tuple((FaultClass(c), float(row[c])) for c in order[:size])
                                  for row, (order, size) in zip(probs, expected)]
            argmax = [order[0] for order, _ in expected]
            covered = sum(int(label) in order[:size] for label, (order, size) in zip(labels, expected))
            sizes = sum(size for _, size in expected)
            assert coverage_eval(d, labels) == (covered / len(labels), sizes / len(labels))
            conf = np.zeros((5, 5), dtype=np.int64)
            for label, predicted in zip(labels, argmax):
                conf[int(label), predicted] += 1
            assert confusion_matrix(d.classes[:, 0], labels).tolist() == conf.tolist()
            report = build_metrics(d.classes[:, 0], labels, coverage=1.0, mean_set_size=1.0)
            assert report.confusion == tuple(map(tuple, conf.tolist()))

    def test_text_is_json_dumps_of_each_row(self):
        probs, labels = self.rows(9)
        labels = [label if k % 3 else None for k, label in enumerate(labels)]
        ids = [f"m{k}" if k % 2 else f"field  {k}\"\\" for k in range(len(probs))]
        predictor = conformal.ConformalPredictor(alpha=0.3, qhat=0.8, n_calibration=9, model_digest="x")
        d = conformal.diagnoses(predictor, ids, probs)
        lines = []
        for source_id, row, label in zip(ids, probs, labels):
            order, size = brute_force_diagnosis(row, 0.8)
            obj = {
                "source_id": source_id,
                "prediction_set": [{"class": FaultClass(c).name, "probability": float(row[c])} for c in order[:size]],
                "alpha": 0.3,
                "qhat": 0.8,
                "singleton": size == 1,
                "argmax_class": FaultClass(order[0]).name,
            }
            if label is not None:
                obj["label"] = label.name
            lines.append(json.dumps(obj) + "\n")
        assert {len(line.split('"class"')) - 1 for line in lines} >= {1, 2}
        assert "".join(conformal.diagnoses_lines(d, labels)) == "".join(lines)
