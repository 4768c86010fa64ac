import numpy as np
import pytest

from pmdiag import model as mlp, preprocess, synth
from pmdiag.conformal import (
    BadDistributionError,
    ConformalPredictor,
    Diagnosis,
    DigestMismatchError,
    EmptyCalibrationError,
    _aps_scores,
    aps_score,
    calibrate,
    calibrate_probs,
    check_digest,
    diagnose,
    load_predictor,
    diagnoses,
    predict_set,
    predict_sets,
    quantile_threshold,
    save_predictor,
)
from pmdiag.core import FaultClass, Manoeuvre
from pmdiag.model import MlpModel


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
        assert abs(aps_score(PROBS, FaultClass.Obstacle) - 0.90) < 1e-12

    def test_argmax_scores_its_probability(self):
        assert abs(aps_score(PROBS, FaultClass.Nominal) - 0.60) < 1e-12

    def test_last_ranked_scores_exactly_one(self):
        assert aps_score(PROBS, FaultClass.Misalignment) == 1.0

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            for cls in FaultClass:
                s = aps_score(p, cls)
                assert 0.0 < s <= 1.0

    def test_tie_break_by_code(self):
        p = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
        # descending order with ties is 0,1,2,3 then 4
        assert abs(aps_score(p, FaultClass.Obstacle) - 0.50) < 1e-12

    def test_batched_scores_equal_the_per_row_formula(self):
        probs, labels = scoring_rows()
        batched = _aps_scores(probs, labels, 2)
        reference = np.array([reference_aps_score(p, c) for p, c in zip(probs, labels)])
        assert batched.tobytes() == reference.tobytes()
        # aps_score is the one-row case
        for k in range(0, len(probs), 997):
            assert aps_score(probs[k], FaultClass(int(labels[k]))) == reference[k]

    def test_bad_distribution(self):
        with pytest.raises(BadDistributionError):
            aps_score(np.array([0.9, 0.2, 0.0, 0.0, 0.0]), FaultClass.Nominal)
        with pytest.raises(BadDistributionError):
            aps_score(np.array([1.1, -0.1, 0.0, 0.0, 0.0]), FaultClass.Nominal)


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
        records = [small_run["features"][m.id] for m in small_run["calibration"]][:10]
        predictor = calibrate(small_run["model"], records, alpha=0.05)
        assert predictor.qhat == 1.0
        assert predictor.n_calibration == 10

    def test_n19_equals_max_score(self, small_run):
        records = [small_run["features"][m.id] for m in small_run["calibration"]][:19]
        mdl = small_run["model"]
        predictor = calibrate(mdl, records, alpha=0.05)
        scores = [aps_score(mlp.forward(mdl, fv.values), label) for fv, label in records]
        assert predictor.qhat == max(scores)

    def test_empty_calibration(self, small_run):
        with pytest.raises(EmptyCalibrationError):
            calibrate(small_run["model"], [], alpha=0.05)

    def test_stored_probabilities_give_the_same_predictor(self, small_run):
        records = [small_run["features"][m.id] for m in small_run["calibration"]]
        mdl = small_run["model"]
        stored = [(mlp.forward(mdl, fv.values), label) for fv, label in records]
        from_probs = calibrate_probs(stored, 0.05, mlp.model_digest(mdl))
        from_model = calibrate(mdl, records, alpha=0.05)
        assert from_probs == from_model
        assert from_probs.qhat.hex() == from_model.qhat.hex()

    def test_error_names_the_first_bad_pair(self):
        bad = np.array([0.9, 0.2, 0.0, 0.0, 0.0])
        scored = [(PROBS, FaultClass.Nominal)] * 3 + [(bad, FaultClass.Obstacle)] * 2
        with pytest.raises(BadDistributionError) as info:
            calibrate_probs(scored, 0.05, "x")
        assert info.value.row == 3

    def test_digest_binding(self, small_run):
        records = [small_run["features"][m.id] for m in small_run["calibration"]]
        predictor = calibrate(small_run["model"], records, alpha=0.05)
        check_digest(predictor, small_run["model"])
        other = mlp.init_params((128, 64, 32, 5), 999)
        with pytest.raises(DigestMismatchError):
            check_digest(predictor, other)


class TestPredictSet:
    def test_singleton(self):
        ps = predict_set(predictor_with(0.85), np.array([0.90, 0.05, 0.03, 0.01, 0.01]))
        assert [c for c, _ in ps] == [FaultClass.Nominal]
        d = Diagnosis("x", ps, alpha=0.05, qhat=0.85)
        assert d.singleton
        assert d.argmax_class is FaultClass.Nominal

    def test_two_classes(self):
        ps = predict_set(predictor_with(0.85), PROBS)
        assert [c for c, _ in ps] == [FaultClass.Nominal, FaultClass.Obstacle]
        assert not Diagnosis("x", ps, alpha=0.05, qhat=0.85).singleton

    def test_qhat_one_gives_all_classes(self):
        ps = predict_set(predictor_with(1.0), PROBS)
        assert len(ps) == 5

    def test_probabilities_descending(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            ps = predict_set(predictor_with(float(rng.uniform(0.1, 1.0))), p)
            probs = [prob for _, prob in ps]
            assert probs == sorted(probs, reverse=True)

    def test_monotone_in_qhat(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            q1, q2 = sorted(rng.uniform(0.05, 1.0, size=2))
            s1 = {c for c, _ in predict_set(predictor_with(float(q1)), p)}
            s2 = {c for c, _ in predict_set(predictor_with(float(q2)), p)}
            assert s1 <= s2

    def test_oracle_equivalence_1000(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(5) * float(rng.uniform(0.2, 3.0)))
            qhat = 1.0 - float(rng.uniform(0.0, 1.0))  # in (0, 1]
            got = [c for c, _ in predict_set(predictor_with(qhat), p)]
            assert got == brute_force_set(p, qhat)

    def test_nan_vector_rejected(self):
        # abs(nan - 1) > tol is False, so a sum check alone lets NaN through
        with pytest.raises(BadDistributionError):
            predict_set(predictor_with(0.9), np.array([np.nan, 0.5, 0.5, 0.0, 0.0]))


def reference_set(probs, qhat):
    """One row's set as predict_set built it before sets were built from a
    matrix: a binary search of the row's cumulative mass."""
    raw = np.asarray(probs, dtype=np.float64)
    p = raw / float(raw.sum())
    order = np.argsort(-p, kind="stable")
    cum = np.cumsum(p[order])
    size = min(max(int(np.searchsorted(cum, qhat, side="left")) + 1, 1), p.size)
    return tuple((FaultClass(int(c)), float(raw[c])) for c in order[:size])


class TestPredictSets:
    def assert_rows_match(self, probs, qhat):
        predictor = predictor_with(qhat)
        got = predict_sets(predictor, probs)
        assert len(got) == len(probs)
        for row, members in zip(probs, got):
            assert members == reference_set(row, qhat) == predict_set(predictor, row)
            assert [type(v) for pair in members for v in pair] == [FaultClass, float] * len(members)

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
        [ties] = predict_sets(predictor_with(1.0), probs[1:2])
        codes = [c for c, _ in ties]
        assert codes == [FaultClass(1), FaultClass(2), FaultClass(4), FaultClass(0), FaultClass(3)]

    def test_qhat_equal_to_a_cumulative_mass(self):
        # dyadic rows: every cumulative mass is exact, so qhat can equal one
        dyadic = np.array([[0.5, 0.25, 0.125, 0.0625, 0.0625], [0.0625, 0.125, 0.0625, 0.25, 0.5]])
        for qhat in (0.5, 0.75, 0.875, 0.9375):
            self.assert_rows_match(dyadic, qhat)
            [members, _] = predict_sets(predictor_with(qhat), dyadic)
            assert sum(prob for _, prob in members) == qhat
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
            predict_sets(predictor_with(0.9), probs)
        assert info.value.row == 3

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 5)])
    def test_needs_a_probability_matrix(self, shape):
        with pytest.raises(BadDistributionError, match="need 5 probabilities"):
            predict_sets(predictor_with(0.9), np.full(shape, 0.2))

    def test_diagnoses_wrap_each_row(self):
        predictor = predictor_with(0.85)
        probs = np.stack([PROBS, PROBS[::-1]])
        got = diagnoses(predictor, ["a", "b"], probs)
        assert [d.source_id for d in got] == ["a", "b"]
        assert [d.prediction_set for d in got] == predict_sets(predictor, probs)
        assert all((d.alpha, d.qhat) == (0.05, 0.85) for d in got)
        assert diagnoses(predictor, [], np.empty((0, 5))) == []


class TestDiagnose:
    def fresh_trace(self, small_run, fault=None, seed=77, severity=0.8):
        cfg = small_run["cfg"]
        if fault is None:
            return synth.generate_nominal(cfg, seed, manoeuvre_id="fresh")
        return synth.inject_fault(
            cfg, synth.FaultSpec(fault, severity), seed, manoeuvre_id="fresh"
        )

    def predictor(self, small_run):
        records = [small_run["features"][m.id] for m in small_run["calibration"]]
        return calibrate(small_run["model"], records, alpha=0.05)

    def test_obstacle_in_set(self, small_run):
        predictor = self.predictor(small_run)
        m = self.fresh_trace(small_run, FaultClass.Obstacle)
        fv = preprocess.preprocess(m)
        d = diagnose(predictor, small_run["model"], fv)
        classes = {c for c, _ in d.prediction_set}
        assert FaultClass.Obstacle in classes
        assert d.argmax_class is FaultClass.Obstacle
        assert d.source_id == "fresh"
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
        d = diagnose(self.predictor(small_run), small_run["model"], preprocess.preprocess(m))
        assert len(d.prediction_set) >= 2

    def test_uninformative_model_gives_maximal_sets(self, small_run):
        flat = MlpModel((128, 5), [np.zeros((128, 5))], [np.zeros(5)])
        records = [small_run["features"][m.id] for m in small_run["calibration"]]
        predictor = calibrate(flat, records, alpha=0.05)
        assert predictor.qhat == 1.0
        fv = small_run["features"][small_run["holdout"].manoeuvres[0].id][0]
        d = diagnose(predictor, flat, fv)
        assert len(d.prediction_set) == 5

    def test_set_always_contains_argmax(self, small_run):
        predictor = self.predictor(small_run)
        mdl = small_run["model"]
        for m in small_run["holdout"]:
            fv = small_run["features"][m.id][0]
            d = diagnose(predictor, mdl, fv)
            assert d.prediction_set[0][0] is d.argmax_class
            assert len(d.prediction_set) >= 1
            assert d.singleton == (len(d.prediction_set) == 1)


class TestPredictorIo:
    def test_round_trip(self, tmp_path):
        p = predictor_with(0.876543, n=31)
        path = tmp_path / "predictor.json"
        save_predictor(p, path)
        back = load_predictor(path)
        assert back == p

    def test_invariants(self):
        with pytest.raises(ValueError):
            ConformalPredictor(alpha=0.0, qhat=0.5, n_calibration=1, model_digest="x")
        with pytest.raises(ValueError):
            ConformalPredictor(alpha=0.05, qhat=0.0, n_calibration=1, model_digest="x")
        with pytest.raises(ValueError):
            ConformalPredictor(alpha=0.05, qhat=0.5, n_calibration=0, model_digest="x")
