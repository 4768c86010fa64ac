import collections

import numpy as np
import pytest

from pmdiag import conformal, evaluation, model, preprocess, synth
from pmdiag.core import FaultClass, TechnologyProfile


# -0.0, the smallest subnormal, both sides of repr's switch to exponent
# notation, a value with no exact binary form, and the largest finite double
AWKWARD_FLOATS = [-0.0, 5e-324, 1e-05, 1e-04, 0.1, 1e16, 1.7976931348623157e308]

MJ_COUNTS = {
    FaultClass.Nominal: 356,
    FaultClass.Obstacle: 274,
    FaultClass.Friction: 355,
    FaultClass.PowerSupply: 125,
}


@pytest.fixture(scope="session")
def mj_profile():
    return synth.DEFAULT_PROFILES["MJ"]


@pytest.fixture(scope="session")
def clean_cfg(mj_profile):
    """Noiseless, jitterless MJ-like config: exact construction values."""
    return synth.SynthConfig(profile=mj_profile)


@pytest.fixture(scope="session")
def noisy_cfg(mj_profile):
    return synth.SynthConfig(
        profile=mj_profile, noise_sigma=0.09, amplitude_jitter=0.05, duration_jitter=0.05
    )


def profile_at_rate(profile: TechnologyProfile, sample_rate: float) -> TechnologyProfile:
    return TechnologyProfile(
        profile.name,
        profile.supply,
        sample_rate,
        profile.nominal_peak_amps,
        profile.plateau_amps,
        profile.move_duration,
    )


def preprocessed(manoeuvres, cfg=preprocess.PreprocessConfig()):
    """The (n, feature_length) feature matrix of the manoeuvres, from one
    preprocess_rows call; the first manoeuvre that fails raises its error."""
    values, errors = preprocess.preprocess_rows(manoeuvres, cfg)
    for error in errors:
        if error is not None:
            raise error
    return values


def rows_of(run, manoeuvres):
    """The rows of a run's feature matrix that hold `manoeuvres` of its dataset."""
    return run["features"][[run["position"][m.id] for m in manoeuvres]]


def calibrated(mdl, manoeuvres, values, alpha=0.05):
    """The predictor calibrated on labelled manoeuvres and their feature rows
    `values`, scored by one forward_rows call."""
    probs = model.forward_rows(mdl, values)
    return conformal.calibrate_probs(probs, [m.label for m in manoeuvres], conformal.ConformalConfig(alpha),
                                     model.model_digest(mdl))


def diagnosed(predictor, mdl, manoeuvres, values):
    """The conformal.Diagnoses of the manoeuvres and their feature rows `values`, scored by one forward_rows call."""
    return conformal.diagnoses(predictor, [m.id for m in manoeuvres], model.forward_rows(mdl, values))


def members(d):
    """Each row's prediction set of a conformal.Diagnoses as (FaultClass, probability) pairs, argmax first."""
    return [
        tuple((FaultClass(c), prob) for c, prob in zip(classes[:size], probabilities[:size]))
        for classes, probabilities, size in zip(d.classes.tolist(), d.probabilities.tolist(), d.sizes.tolist())
    ]


@pytest.fixture(scope="session")
def small_run(mj_profile):
    """Small trained pipeline shared by conformal and evaluation tests.

    All five classes present so APS scores can reach 1.0.
    """
    counts = {
        FaultClass.Nominal: 60,
        FaultClass.Obstacle: 45,
        FaultClass.Friction: 45,
        FaultClass.PowerSupply: 40,
        FaultClass.Misalignment: 30,
    }
    cfg = synth.SynthConfig(
        profile=mj_profile, noise_sigma=0.09, amplitude_jitter=0.05, duration_jitter=0.05, seed=5
    )
    ds = synth.generate_dataset(counts, cfg, (0.3, 1.0))
    features = preprocessed(ds)
    spec = evaluation.SplitSpec(seed=5)
    train_at, test_at = evaluation.stratified_split([m.id for m in ds], [m.label for m in ds], spec)
    train, test = [ds.manoeuvres[p] for p in train_at], [ds.manoeuvres[p] for p in test_at]
    cal_at, hold_at = evaluation.split_calibration([m.id for m in test], [m.label for m in test], spec)
    weights = model.weight_vector(model.class_weights(collections.Counter(m.label for m in train)))
    result = model.train(
        features[train_at],
        [m.label for m in train],
        model.TrainConfig(epochs=80, seed=5, class_weights=weights),
    )
    return {
        "cfg": cfg,
        "dataset": ds,
        "features": features,
        "position": {m.id: p for p, m in enumerate(ds)},
        "train": train,
        "test": test,
        "calibration": [test[k] for k in cal_at],
        "holdout": [test[k] for k in hold_at],
        "model": result.model,
        "losses": result.epoch_losses,
    }
