import json
import re

import numpy as np
import pytest

from pmdiag import model as mlp, synth
from pmdiag.conformal import (
    BadDistributionError,
    ConformalConfig,
    ConformalPredictor,
    Diagnoses,
    DigestMismatchError,
    EmptyCalibrationError,
    _aps_scores,
    calibrate_probs,
    check_digest,
    load_predictor,
    diagnoses,
    diagnoses_lines,
    quantile_threshold,
    save_predictor,
)
from pmdiag.core import DatasetIoError, FaultClass, Manoeuvre
from pmdiag.model import MlpModel

from conftest import AWKWARD_FLOATS, calibrated, diagnosed, members, preprocessed, rows_of


def brute_force_set(probs, qhat):
    """Shortest prefix of the descending-sorted classes with mass >= qhat."""
    p = [float(v) for v in probs]
    total = sum(p)
    p = [v / total for v in p]
    order = sorted(range(5), key=lambda c: (-p[c], c))
    for size in range(1, 6):
        if sum(p[c] for c in order[:size]) >= qhat:
            return [FaultClass(c) for c in order[:size]]
    return [FaultClass(c) for c in order]


def predictor_with(qhat, alpha=0.05, n=20):
    return ConformalPredictor(alpha=alpha, qhat=qhat, n_calibration=n, model_digest="x")


def sets(predictor, probs):
    """Each row's prediction set as (FaultClass, probability) pairs, from one `diagnoses` call."""
    return members(diagnoses(predictor, [f"m{k}" for k in range(len(probs))], probs))


PROBS = np.array([0.60, 0.30, 0.06, 0.03, 0.01])


def reference_aps_score(probs, true_class):
    """The score of one row by the per-row formula: normalize, sort, then one
    minus the mass of the classes ranked after the true class."""
    p = np.asarray(probs, dtype=np.float64)
    p = p / p.sum()
    order = np.argsort(-p, kind="stable")
    pos = int(np.flatnonzero(order == int(true_class))[0])
    return 1.0 - float(p[order][pos + 1 :].sum())


def scoring_rows():
    """80 100 probability rows with their true classes: 10 000 Dirichlet rows
    at each of eight concentrations from 0.05 to 5, then 100 rows of exact ties."""
    rng = np.random.default_rng(14)
    rows = [rng.dirichlet(np.full(5, c), size=10_000) for c in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0)]
    ties = rng.integers(1, 4, size=(100, 5)).astype(np.float64)
    rows.append(ties / ties.sum(axis=1, keepdims=True))
    probs = np.concatenate(rows)
    return probs, rng.integers(0, 5, size=len(probs))


class TestApsScore:
    def test_hand_computed(self):
        assert abs(_aps_scores(PROBS[None], [FaultClass.Obstacle])[0] - 0.90) < 1e-12

    def test_argmax_scores_its_probability(self):
        assert abs(_aps_scores(PROBS[None], [FaultClass.Nominal])[0] - 0.60) < 1e-12

    def test_last_ranked_scores_exactly_one(self):
        assert _aps_scores(PROBS[None], [FaultClass.Misalignment])[0] == 1.0

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            for cls in FaultClass:
                s = _aps_scores(p[None], [cls])[0]
                assert 0.0 < s <= 1.0

    def test_tie_break_by_code(self):
        p = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
        # descending order with ties is 0,1,2,3 then 4
        assert abs(_aps_scores(p[None], [FaultClass.Obstacle])[0] - 0.50) < 1e-12

    def test_batched_scores_equal_the_per_row_formula(self):
        probs, labels = scoring_rows()
        batched = _aps_scores(probs, labels)
        reference = np.array([reference_aps_score(p, c) for p, c in zip(probs, labels)])
        assert batched.tobytes() == reference.tobytes()
        # a one-row matrix gives its row's score
        for k in range(0, len(probs), 997):
            assert _aps_scores(probs[k][None], [FaultClass(int(labels[k]))])[0] == reference[k]

    def test_bad_distribution(self):
        with pytest.raises(BadDistributionError):
            _aps_scores(np.array([[0.9, 0.2, 0.0, 0.0, 0.0]]), [FaultClass.Nominal])
        with pytest.raises(BadDistributionError):
            _aps_scores(np.array([[1.1, -0.1, 0.0, 0.0, 0.0]]), [FaultClass.Nominal])


class TestQuantile:
    def test_n19_alpha005_takes_max(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.2, 0.99, size=19)
        assert quantile_threshold(scores, 0.05) == scores.max()

    def test_n10_alpha005_clamps(self):
        scores = np.linspace(0.1, 1.0, 10)
        assert quantile_threshold(scores, 0.05) == 1.0

    def test_order_statistic(self):
        scores = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        # k = ceil(11 * 0.5) = 6 -> sixth smallest
        assert quantile_threshold(scores, 0.5) == 0.6

    def test_empty(self):
        with pytest.raises(EmptyCalibrationError):
            quantile_threshold([], 0.05)


class TestCalibrate:
    def test_small_calibration_clamps(self, small_run):
        cal = small_run["calibration"][:10]
        predictor = calibrated(small_run["model"], cal, rows_of(small_run, cal))
        assert predictor.qhat == 1.0
        assert predictor.n_calibration == 10

    def test_n19_equals_max_score(self, small_run):
        cal = small_run["calibration"][:19]
        mdl = small_run["model"]
        predictor = calibrated(mdl, cal, rows_of(small_run, cal))
        scores = [_aps_scores(mlp.forward(mdl, values)[None], [m.label])[0]
                  for m, values in zip(cal, rows_of(small_run, cal))]
        assert predictor.qhat == max(scores)

    def test_empty_calibration(self, small_run):
        with pytest.raises(EmptyCalibrationError):
            calibrate_probs(np.empty((0, 5)), [], ConformalConfig(), mlp.model_digest(small_run["model"]))

    def test_stored_probabilities_give_the_same_predictor(self, small_run):
        cal = small_run["calibration"]
        mdl = small_run["model"]
        stored = np.stack([mlp.forward(mdl, values) for values in rows_of(small_run, cal)])
        from_probs = calibrate_probs(stored, [m.label for m in cal], ConformalConfig(), mlp.model_digest(mdl))
        from_model = calibrated(mdl, cal, rows_of(small_run, cal))
        assert from_probs == from_model
        assert from_probs.qhat.hex() == from_model.qhat.hex()

    def test_error_names_the_first_bad_pair(self):
        bad = np.array([0.9, 0.2, 0.0, 0.0, 0.0])
        probs = np.stack([PROBS] * 3 + [bad] * 2)
        labels = [FaultClass.Nominal] * 3 + [FaultClass.Obstacle] * 2
        with pytest.raises(BadDistributionError) as info:
            calibrate_probs(probs, labels, ConformalConfig(), "x")
        assert info.value.row == 3

    @pytest.mark.parametrize("labels", [2, 4])
    def test_row_count_must_match_labels(self, labels):
        message = re.escape(f"3 probability rows for {labels} labels")
        with pytest.raises(ValueError, match=f"^{message}$"):
            calibrate_probs(np.tile(PROBS, (3, 1)), [FaultClass.Nominal] * labels, ConformalConfig(), "x")

    def test_alpha_comes_from_the_config(self):
        predictor = calibrate_probs(np.tile(PROBS, (3, 1)), [FaultClass.Obstacle] * 3, ConformalConfig(0.5), "x")
        assert predictor.alpha == 0.5
        assert predictor.qhat == quantile_threshold(_aps_scores(np.tile(PROBS, (3, 1)), [FaultClass.Obstacle] * 3), 0.5)

    def test_digest_binding(self, small_run):
        cal = small_run["calibration"]
        predictor = calibrated(small_run["model"], cal, rows_of(small_run, cal))
        check_digest(predictor, small_run["model"])
        other = mlp.init_params((128, 64, 32, 5), 999)
        with pytest.raises(DigestMismatchError):
            check_digest(predictor, other)


class TestPredictSet:
    def test_singleton(self):
        d = diagnoses(predictor_with(0.85), ["x"], np.array([[0.90, 0.05, 0.03, 0.01, 0.01]]))
        assert [c for c, _ in members(d)[0]] == [FaultClass.Nominal]
        assert json.loads("".join(diagnoses_lines(d, [None])))["singleton"]
        assert FaultClass(int(d.classes[0, 0])) is FaultClass.Nominal

    def test_two_classes(self):
        d = diagnoses(predictor_with(0.85), ["x"], PROBS[None])
        assert [c for c, _ in members(d)[0]] == [FaultClass.Nominal, FaultClass.Obstacle]
        assert not json.loads("".join(diagnoses_lines(d, [None])))["singleton"]

    def test_qhat_one_gives_all_classes(self):
        ps = sets(predictor_with(1.0), PROBS[None])[0]
        assert len(ps) == 5

    def test_probabilities_descending(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            ps = sets(predictor_with(float(rng.uniform(0.1, 1.0))), p[None])[0]
            probs = [prob for _, prob in ps]
            assert probs == sorted(probs, reverse=True)

    def test_monotone_in_qhat(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            q1, q2 = sorted(rng.uniform(0.05, 1.0, size=2))
            s1 = {c for c, _ in sets(predictor_with(float(q1)), p[None])[0]}
            s2 = {c for c, _ in sets(predictor_with(float(q2)), p[None])[0]}
            assert s1 <= s2

    def test_oracle_equivalence_1000(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(5) * float(rng.uniform(0.2, 3.0)))
            qhat = 1.0 - float(rng.uniform(0.0, 1.0))  # in (0, 1]
            got = [c for c, _ in sets(predictor_with(qhat), p[None])[0]]
            assert got == brute_force_set(p, qhat)

    def test_nan_vector_rejected(self):
        # abs(nan - 1) > tol is False, so a sum check alone lets NaN through
        with pytest.raises(BadDistributionError):
            sets(predictor_with(0.9), np.array([[np.nan, 0.5, 0.5, 0.0, 0.0]]))


def reference_set(probs, qhat):
    """One row's set by a binary search of its cumulative mass, as sets were
    built one row at a time before they were built from a matrix."""
    raw = np.asarray(probs, dtype=np.float64)
    p = raw / float(raw.sum())
    order = np.argsort(-p, kind="stable")
    cum = np.cumsum(p[order])
    size = min(max(int(np.searchsorted(cum, qhat, side="left")) + 1, 1), p.size)
    return tuple((FaultClass(int(c)), float(raw[c])) for c in order[:size])


class TestPredictSets:
    def assert_rows_match(self, probs, qhat):
        predictor = predictor_with(qhat)
        got = sets(predictor, probs)
        assert len(got) == len(probs)
        for row, row_set in zip(probs, got):
            assert row_set == reference_set(row, qhat) == sets(predictor, row[None])[0]
            assert [type(prob) for _, prob in row_set] == [float] * len(row_set)

    @pytest.mark.parametrize("qhat", [0.9, 0.99996, "random"])
    def test_dirichlet_rows_match_one_row_sets(self, qhat):
        rng = np.random.default_rng(17)
        concentration = rng.choice([0.05, 0.3, 1.0, 5.0], size=(10_000, 1))
        probs = rng.gamma(concentration * np.ones(5))
        probs /= probs.sum(axis=1, keepdims=True)
        self.assert_rows_match(probs, float(rng.uniform(0.05, 1.0)) if qhat == "random" else qhat)

    def test_exact_ties_go_to_the_lowest_class_code(self):
        probs = np.array([
            [0.2, 0.2, 0.2, 0.2, 0.2],
            [0.1, 0.3, 0.3, 0.0, 0.3],
            [0.0, 0.0, 0.5, 0.0, 0.5],
            [0.25, 0.25, 0.0, 0.25, 0.25],
        ])
        for qhat in (0.1, 0.5, 0.6, 0.9, 1.0):
            self.assert_rows_match(probs, qhat)
        [ties] = sets(predictor_with(1.0), probs[1:2])
        codes = [c for c, _ in ties]
        assert codes == [FaultClass(1), FaultClass(2), FaultClass(4), FaultClass(0), FaultClass(3)]

    def test_qhat_equal_to_a_cumulative_mass(self):
        # dyadic rows: every cumulative mass is exact, so qhat can equal one
        dyadic = np.array([[0.5, 0.25, 0.125, 0.0625, 0.0625], [0.0625, 0.125, 0.0625, 0.25, 0.5]])
        for qhat in (0.5, 0.75, 0.875, 0.9375):
            self.assert_rows_match(dyadic, qhat)
            [row_set, _] = sets(predictor_with(qhat), dyadic)
            assert sum(prob for _, prob in row_set) == qhat
        rng = np.random.default_rng(21)
        probs = rng.dirichlet(np.ones(5), size=20)
        for row in probs:
            p = row / row.sum()
            cum = np.cumsum(p[np.argsort(-p, kind="stable")])
            for qhat in cum[cum <= 1.0]:
                self.assert_rows_match(probs, float(qhat))

    def test_qhat_one_includes_every_class_with_mass_left(self):
        probs = np.array([[0.5, 0.5, 0.0, 0.0, 0.0], [0.6, 0.3, 0.06, 0.03, 0.01]])
        self.assert_rows_match(probs, 1.0)
        self.assert_rows_match(np.random.default_rng(3).dirichlet(np.ones(5), size=500), 1.0)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (1, -0.1, "negative probability entry"),
            (0, np.nan, "non-finite probability entry"),
            (2, 0.5, "probabilities sum to 1.44"),
        ],
    )
    def test_first_bad_row_named(self, column, value, message):
        probs = np.tile(PROBS, (6, 1))
        probs[3, column] = value
        probs[5] = np.inf
        with pytest.raises(BadDistributionError, match=f"^{message}") as info:
            sets(predictor_with(0.9), probs)
        assert info.value.row == 3

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 5)])
    def test_needs_a_probability_matrix(self, shape):
        message = re.escape(f"need 5 probabilities, got shape {shape}")
        with pytest.raises(BadDistributionError, match=f"^{message}$"):
            sets(predictor_with(0.9), np.full(shape, 0.2))
        # calibrate_probs checks its matrix the same way
        with pytest.raises(BadDistributionError, match=f"^{message}$"):
            calibrate_probs(np.full(shape, 0.2), [FaultClass.Nominal] * shape[0], ConformalConfig(), "x")

    def test_diagnoses_wrap_each_row(self):
        predictor = predictor_with(0.85)
        probs = np.stack([PROBS, PROBS[::-1]])
        got = diagnoses(predictor, ["a", "b"], probs)
        assert got.source_ids == ["a", "b"]
        assert members(got) == [reference_set(row, 0.85) for row in probs]
        assert (got.alpha, got.qhat) == (0.05, 0.85)
        empty = diagnoses(predictor, [], np.empty((0, 5)))
        assert (empty.source_ids, members(empty), "".join(diagnoses_lines(empty, []))) == ([], [], "")


def reference_lines(d, labels) -> list:
    """The diagnoses.jsonl lines of `d` as a dict per row and json.dumps make them."""
    lines = []
    for (source_id, names, probabilities), label in zip(d.sets(), labels):
        obj = {
            "source_id": source_id,
            "prediction_set": [{"class": name, "probability": prob} for name, prob in zip(names, probabilities)],
            "alpha": d.alpha,
            "qhat": d.qhat,
            "singleton": len(names) == 1,
            "argmax_class": names[0],
        }
        if label is not None:
            obj["label"] = label.name
        lines.append(json.dumps(obj) + "\n")
    return lines


# a quote, a backslash, a control character, non-ASCII text and U+2028
AWKWARD_IDS = ['say "hi"', "back\\slash", "bell\x07", "Weiche-Zürich", "line\u2028sep", "plain"]


# an integer qhat is written as json.dumps writes it, 1 and not 1.0
@pytest.mark.parametrize("alpha, qhat", [(0.05, 0.85), (1e-05, 1)])
def test_lines_match_json_dumps_of_a_dict(alpha, qhat):
    n = 30
    ids = [f"{AWKWARD_IDS[k % len(AWKWARD_IDS)]}-{k}" for k in range(n)]
    classes = np.array([np.roll(np.arange(5), k) for k in range(n)])
    probabilities = np.array([[AWKWARD_FLOATS[(k + c) % len(AWKWARD_FLOATS)] for c in range(5)] for k in range(n)])
    sizes = np.arange(n) % 5 + 1  # sets of 1 to 5 classes
    labels = [None if k % 2 else FaultClass(k % 5) for k in range(n)]
    d = Diagnoses(ids, classes, probabilities, sizes, alpha, qhat)
    assert list(diagnoses_lines(d, labels)) == reference_lines(d, labels)


class TestDiagnose:
    def fresh_trace(self, small_run, fault=FaultClass.Nominal, seed=77, severity=0.8):
        return synth.generate_manoeuvre(small_run["cfg"], fault, severity, seed, manoeuvre_id="fresh")

    def predictor(self, small_run):
        cal = small_run["calibration"]
        return calibrated(small_run["model"], cal, rows_of(small_run, cal))

    def test_obstacle_in_set(self, small_run):
        predictor = self.predictor(small_run)
        m = self.fresh_trace(small_run, FaultClass.Obstacle)
        d = diagnosed(predictor, small_run["model"], [m], preprocessed([m]))
        [prediction_set] = members(d)
        classes = {c for c, _ in prediction_set}
        assert FaultClass.Obstacle in classes
        assert prediction_set[0][0] is FaultClass.Obstacle
        assert d.source_ids == ["fresh"]
        assert d.alpha == 0.05

    def test_ambiguous_trace_yields_multiclass_set(self, small_run):
        # friction-like plateau elevation plus a power-supply-like ripple
        cfg = small_run["cfg"]
        params = synth.nominal_params(cfg)
        curve = synth.build_curve(params)
        curve[params.move_start : params.move_end] *= 1.30
        t = np.arange(curve.size) / cfg.profile.sample_rate
        ripple_hz = 2.0 * synth.SUPPLY_RIPPLE_HZ[cfg.profile.supply]
        curve *= 0.85 * (1.0 + 0.04 * np.sin(2 * np.pi * ripple_hz * t))
        m = Manoeuvre("mixed", cfg.profile.name, 0.0, curve, cfg.profile.sample_rate)
        [prediction_set] = members(diagnosed(self.predictor(small_run), small_run["model"], [m], preprocessed([m])))
        assert len(prediction_set) >= 2

    def test_uninformative_model_gives_maximal_sets(self, small_run):
        flat = MlpModel((128, 5), [np.zeros((128, 5))], [np.zeros(5)])
        cal, hold = small_run["calibration"], small_run["holdout"][:1]
        predictor = calibrated(flat, cal, rows_of(small_run, cal))
        assert predictor.qhat == 1.0
        [prediction_set] = members(diagnosed(predictor, flat, hold, rows_of(small_run, hold)))
        assert len(prediction_set) == 5

    def test_set_always_contains_argmax(self, small_run):
        predictor = self.predictor(small_run)
        mdl = small_run["model"]
        hold = small_run["holdout"]
        d = diagnosed(predictor, mdl, hold, rows_of(small_run, hold))
        objs = [json.loads(line) for line in diagnoses_lines(d, [None] * len(hold))]
        for prediction_set, code, obj in zip(members(d), d.classes[:, 0], objs, strict=True):
            assert prediction_set[0][0] is FaultClass(int(code))
            assert obj["argmax_class"] == prediction_set[0][0].name
            assert len(prediction_set) >= 1
            assert obj["singleton"] == (len(prediction_set) == 1)


class TestPredictorIo:
    def test_round_trip(self, tmp_path):
        p = predictor_with(0.876543, n=31)
        path = tmp_path / "predictor.json"
        save_predictor(p, path)
        back = load_predictor(path)
        assert back == p

    def test_written_file_loads_bit_for_bit(self, tmp_path):
        path = tmp_path / "predictor.json"
        for qhat in (1.0, 0.1 + 0.2, 5e-324):
            save_predictor(predictor_with(qhat, alpha=0.025, n=7), path)
            back = load_predictor(path)
            assert (back.alpha.hex(), back.qhat.hex(), back.n_calibration) == ((0.025).hex(), qhat.hex(), 7)

    @pytest.mark.parametrize("key, value, expected", [
        ("alpha", "0.05", 'alpha must be a number, not "0.05"'),
        ("alpha", True, "alpha must be a number, not true"),
        ("qhat", True, "qhat must be a number, not true"),
        ("qhat", None, "qhat must be a number, not null"),
        ("n_calibration", 110.9, "n_calibration must be an integer, not 110.9"),
        ("n_calibration", 110.0, "n_calibration must be an integer, not 110.0"),
        ("n_calibration", False, "n_calibration must be an integer, not false"),
        ("model_digest", 7, "model_digest must be a string, not 7"),
    ])
    def test_fields_take_only_their_json_type(self, tmp_path, key, value, expected):
        path = tmp_path / "predictor.json"
        save_predictor(predictor_with(0.9, n=111), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(DatasetIoError, match=f"^{re.escape(f'{path} is not a valid predictor file: {expected}')}$"):
            load_predictor(path)

    def test_invariants(self):
        with pytest.raises(ValueError):
            ConformalPredictor(alpha=0.0, qhat=0.5, n_calibration=1, model_digest="x")
        with pytest.raises(ValueError):
            ConformalPredictor(alpha=0.05, qhat=0.0, n_calibration=1, model_digest="x")
        with pytest.raises(ValueError):
            ConformalPredictor(alpha=0.05, qhat=0.5, n_calibration=0, model_digest="x")
