"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import collections
import json

import numpy as np
import pytest

from pmdiag import cli, conformal, evaluation, model as mlp, synth
from pmdiag.core import FaultClass, Manoeuvre, load_dataset, save_dataset
from pmdiag.preprocess import PreprocessConfig

from conftest import MJ_COUNTS, calibrated, diagnosed, preprocessed, profile_at_rate, rows_of

PCFG = PreprocessConfig()


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def run_experiment(seed):
    """Desk-scale protocol: Table-2-like counts, 3% noise, 80/20 split."""
    profile = synth.DEFAULT_PROFILES["MJ"]
    cfg = synth.SynthConfig(
        profile=profile,
        noise_sigma=0.03 * profile.plateau_amps,
        amplitude_jitter=0.05,
        duration_jitter=0.05,
        seed=seed,
    )
    ds = synth.generate_dataset(MJ_COUNTS, cfg, (0.3, 1.0))
    features = preprocessed(ds, PCFG)
    spec = evaluation.SplitSpec(seed=seed)
    train_at, test_at = evaluation.stratified_split([m.id for m in ds], [m.label for m in ds], spec)
    train, test = [ds.manoeuvres[p] for p in train_at], [ds.manoeuvres[p] for p in test_at]
    weights = mlp.weight_vector(mlp.class_weights(collections.Counter(m.label for m in train)))
    result = mlp.train(
        features[train_at],
        [m.label for m in train],
        mlp.TrainConfig(seed=seed, class_weights=weights),
    )
    x = features[test_at]
    y = np.array([int(m.label) for m in test])
    codes, _ = mlp.predict_batch(result.model, x)
    return {
        "dataset": ds,
        "features": features,
        "position": {m.id: p for p, m in enumerate(ds)},
        "test": test,
        "model": result.model,
        "metrics": evaluation.binary_metrics(evaluation.confusion_matrix(codes, y)),
    }


@pytest.fixture(scope="module")
def seed1_experiment():
    return run_experiment(1)


def test_criterion_1_classification_quality(seed1_experiment):
    worst_precision, worst_fpr, worst_fnr = 1.0, 0.0, 0.0
    for seed in range(1, 6):
        exp = seed1_experiment if seed == 1 else run_experiment(seed)
        precision, fpr, fnr = exp["metrics"]
        worst_precision = min(worst_precision, precision)
        worst_fpr = max(worst_fpr, fpr)
        worst_fnr = max(worst_fnr, fnr)
    ok = worst_precision >= 0.99 and worst_fpr <= 0.01 and worst_fnr <= 0.02
    verdict(
        1,
        "classification quality",
        ok,
        f"5 seeds, worst precision={worst_precision:.4f} "
        f"fpr={worst_fpr:.4f} fnr={worst_fnr:.4f}",
    )


def test_criterion_2_conformal_coverage(seed1_experiment):
    exp = seed1_experiment
    coverages = []
    for i in range(50):
        spec = evaluation.SplitSpec(seed=10_000 + i)
        cal_at, hold_at = evaluation.split_calibration([m.id for m in exp["test"]], [m.label for m in exp["test"]],
                                                       spec)
        cal, hold = [exp["test"][k] for k in cal_at], [exp["test"][k] for k in hold_at]
        predictor = calibrated(exp["model"], cal, rows_of(exp, cal))
        coverage, _ = evaluation.coverage_eval(diagnosed(predictor, exp["model"], hold, rows_of(exp, hold)),
                                               [m.label for m in hold])
        coverages.append(coverage)
    coverages = np.array(coverages)
    mean_cov = float(coverages.mean())
    good_splits = int((coverages >= 0.90).sum())
    ok = mean_cov >= 0.93 and good_splits >= 45
    verdict(
        2,
        "conformal coverage",
        ok,
        f"mean={mean_cov:.4f}, splits>=0.90: {good_splits}/50",
    )


def test_criterion_3_aps_oracle_equivalence():
    from test_conformal import brute_force_set, predictor_with, sets

    rng = np.random.default_rng(2024)
    matches = 0
    for _ in range(1000):
        p = rng.dirichlet(np.ones(5) * float(rng.uniform(0.2, 3.0)))
        qhat = 1.0 - float(rng.uniform(0.0, 1.0))
        got = [c for c, _ in sets(predictor_with(qhat), p[None])[0]]
        matches += got == brute_force_set(p, qhat)
    verdict(3, "APS oracle equivalence", matches == 1000, f"{matches}/1000")


def test_criterion_4_quantile_edge_cases(seed1_experiment):
    exp = seed1_experiment
    test = exp["test"]
    p10 = calibrated(exp["model"], test[:10], rows_of(exp, test[:10]))
    ok_clamp = p10.qhat == 1.0
    p19 = calibrated(exp["model"], test[:19], rows_of(exp, test[:19]))
    scores = [
        conformal._aps_scores(mlp.forward(exp["model"], values)[None], [m.label])[0]
        for m, values in zip(test[:19], rows_of(exp, test[:19]))
    ]
    ok_max = p19.qhat == max(scores)
    verdict(
        4,
        "quantile edge cases",
        ok_clamp and ok_max,
        f"n=10 qhat={p10.qhat}, n=19 qhat==max(scores): {ok_max}",
    )


def test_criterion_5_gradient_correctness():
    from test_model import finite_difference_grad, max_rel_error, safe_random_batch

    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        dims = (6, 5, 5) if trial % 2 == 0 else (8, 6, 4, 5)
        m = mlp.init_params(dims, trial)
        batch = safe_random_batch(rng, m, dims[0], 10)
        g = mlp.grad(m, batch)
        fw, fb = finite_difference_grad(m, batch)
        worst = max(worst, max_rel_error(g.weights, fw), max_rel_error(g.biases, fb))
    verdict(5, "gradient correctness", worst < 1e-4, f"max rel err {worst:.2e}")


def test_criterion_6_preprocessing_invariance():
    profile = synth.DEFAULT_PROFILES["MJ"]
    cfg = synth.SynthConfig(
        profile=profile, noise_sigma=0.09, amplitude_jitter=0.05, duration_jitter=0.05
    )
    classes = list(FaultClass)
    worst_scale = 0.0
    for i in range(100):
        cls = classes[i % len(classes)]
        m = synth.generate_manoeuvre(cfg, cls, 0.3 + 0.007 * i, i)
        scaled = [Manoeuvre(m.id, m.technology, m.timestamp, m.samples * k, m.sample_rate, m.label)
                  for k in (1.0, 0.5, 0.9, 2.0)]
        base, *others = preprocessed(scaled, PCFG)
        for v in others:
            diff = float(np.abs(v - base).max())
            worst_scale = max(worst_scale, diff)
    ok_scale = worst_scale <= 1e-12

    # rate invariance needs the same continuous shape at both rates, so
    # duration jitter stays off (sample-count rounding would change the shape)
    worst_rate = 0.0
    for seed in range(100):
        cfg100 = synth.SynthConfig(profile=profile_at_rate(profile, 100.0), amplitude_jitter=0.05)
        cfg200 = synth.SynthConfig(profile=profile_at_rate(profile, 200.0), amplitude_jitter=0.05)
        pair = [synth.generate_manoeuvre(c, FaultClass.Nominal, 0.0, seed) for c in (cfg100, cfg200)]
        f100, f200 = preprocessed(pair, PCFG)
        worst_rate = max(worst_rate, float(np.abs(f100 - f200).max()))
    ok_rate = worst_rate <= 0.02
    verdict(
        6,
        "preprocessing invariance",
        ok_scale and ok_rate,
        f"scale max diff {worst_scale:.2e}, rate max Linf {worst_rate:.4f}",
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    cfg = {
        "synth": {
            "counts": {"Nominal": 40, "Obstacle": 24, "Friction": 24,
                       "PowerSupply": 20, "Misalignment": 16},
            "seed": 33,
        },
        "train": {"epochs": 40, "seed": 33},
        "split": {"seed": 33},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli.main(["pipeline", "--config", str(cfg_path), "--out", str(out2)])
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("timestamp")
    r2.pop("timestamp")
    same_report = json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    same_model = (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and same_report and same_model
    verdict(
        7,
        "pipeline determinism",
        ok,
        f"report identical: {same_report}, model identical: {same_model}",
    )


def test_criterion_8_class_weights():
    weights = mlp.class_weights(MJ_COUNTS)
    n_total = sum(MJ_COUNTS.values())
    k = len(MJ_COUNTS)
    exact = all(weights[c] == n_total / (k * MJ_COUNTS[c]) for c in MJ_COUNTS)
    nominal_exact = weights[FaultClass.Nominal] == 1110 / (4 * 356)
    weighted_mean = sum(MJ_COUNTS[c] * weights[c] for c in MJ_COUNTS) / n_total
    mean_ok = abs(weighted_mean - 1.0) <= 1e-12
    verdict(
        8,
        "class weights",
        exact and nominal_exact and mean_ok,
        f"exact={exact}, weighted mean err {abs(weighted_mean - 1.0):.2e}",
    )


def test_criterion_9_dataset_round_trip(tmp_path, seed1_experiment):
    ds = seed1_experiment["dataset"]
    assert len(ds) == 1110
    path = tmp_path / "round_trip.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    ok = len(back) == len(ds)
    for a, b in zip(ds, back):
        ok = ok and a == b
    verdict(9, "dataset round-trip", ok, f"{len(ds)} manoeuvres, all fields exact")
