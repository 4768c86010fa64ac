"""Command-line entry point: reproducible runs from a JSON config.

Subcommands: generate, preprocess, train, calibrate, diagnose, evaluate,
pipeline. Exit codes: 0 success, 2 config error, 3 I/O error, 4 pipeline
stage failure (stage named on stderr), 5 model/predictor digest mismatch.
Output files are written atomically, so failures never leave partial files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import conformal, evaluation, model, preprocess, synth
from .core import (
    Dataset,
    DatasetIoError,
    FaultClass,
    ParseError,
    PmDiagError,
    TechnologyProfile,
    ValidationError,
    check_unique_ids,
    iter_manoeuvres,
    load_dataset,
    read_jsonl_text,
    save_dataset,
)

DATASET_FILE = "dataset.jsonl"
FEATURES_FILE = "features.jsonl"
MODEL_FILE = "model.json"
TRAINING_LOG_FILE = "training_log.json"
PREDICTOR_FILE = "predictor.json"
REPORT_FILE = "report.json"
DIAGNOSES_CSV = "diagnoses.csv"
DIAGNOSES_JSONL = "diagnoses.jsonl"

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STAGE = 4
EXIT_DIGEST = 5

# A dataset file with fewer lines is loaded in this process alone. One fork,
# its pipe and the reap cost about 4.5 ms, against about 0.8 ms to load and
# preprocess one 760-sample manoeuvre, and a one-manoeuvre diagnose must
# never fork.
FORK_MIN_LINES = 64


class ConfigError(PmDiagError):
    """The run configuration is missing, malformed, or invalid."""


class StageError(PmDiagError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        return type(self), (self.stage, self.cause), self.__dict__


DEFAULT_COUNTS = {
    FaultClass.Nominal: 356,
    FaultClass.Obstacle: 274,
    FaultClass.Friction: 355,
    FaultClass.PowerSupply: 125,
}


@dataclass
class RunConfig:
    synth_cfg: synth.SynthConfig
    counts: "dict[FaultClass, int]"
    severity_range: tuple[float, float]
    preprocess_cfg: preprocess.PreprocessConfig
    train_cfg: model.TrainConfig
    alpha: float
    split_spec: evaluation.SplitSpec
    paths: "dict[str, str]"

    def to_obj(self) -> dict:
        return {
            "synth": {
                **self.synth_cfg.to_obj(),
                "counts": {cls.name: n for cls, n in sorted(self.counts.items(), key=lambda kv: int(kv[0]))},
                "severity_range": list(self.severity_range),
            },
            "preprocess": asdict(self.preprocess_cfg),
            "train": self.train_cfg.to_obj(),
            "conformal": {"alpha": self.alpha},
            "split": asdict(self.split_spec),
            "paths": dict(self.paths),
        }


def _check_keys(section: str, obj: dict, allowed: set) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")


def _build_section(section: str, obj: dict, allowed: set, factory):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {section!r} must be an object")
    _check_keys(section, obj, allowed)
    try:
        return factory(**obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {section!r}: {exc}") from None


def _parse_profile(obj) -> TechnologyProfile:
    if isinstance(obj, str):
        if obj not in synth.DEFAULT_PROFILES:
            raise ConfigError(
                f"unknown profile {obj!r}; known: {sorted(synth.DEFAULT_PROFILES)}"
            )
        return synth.DEFAULT_PROFILES[obj]
    allowed = {"name", "supply", "sample_rate", "nominal_peak_amps", "plateau_amps", "move_duration"}
    return _build_section("synth.profile", obj, allowed, TechnologyProfile)


def _parse_counts(obj) -> "dict[FaultClass, int]":
    if not isinstance(obj, dict):
        raise ConfigError("synth.counts must map class names to counts")
    counts = {}
    for name, n in obj.items():
        try:
            cls = FaultClass.from_name(name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ConfigError(f"count for {name} must be a nonnegative integer")
        counts[cls] = n
    return counts


def parse_run_config(obj: dict, seed_override: "int | None" = None) -> RunConfig:
    """Validate and materialize a RunConfig; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("<root>", obj, {"synth", "preprocess", "train", "conformal", "split", "paths"})

    synth_obj = dict(obj.get("synth", {}))
    _check_keys(
        "synth",
        synth_obj,
        {
            "profile",
            "unlock_peak_duration",
            "lock_peak_duration",
            "noise_sigma",
            "amplitude_jitter",
            "duration_jitter",
            "seed",
            "counts",
            "severity_range",
        },
    )
    profile = _parse_profile(synth_obj.pop("profile", "MJ"))
    counts = _parse_counts(synth_obj.pop("counts", {c.name: n for c, n in DEFAULT_COUNTS.items()}))
    severity_range = synth_obj.pop("severity_range", [0.3, 1.0])
    if (
        not isinstance(severity_range, (list, tuple))
        or len(severity_range) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in severity_range)
    ):
        raise ConfigError("synth.severity_range must be [lo, hi]")
    defaults = {
        "noise_sigma": 0.03 * profile.plateau_amps,
        "amplitude_jitter": 0.05,
        "duration_jitter": 0.05,
        "seed": 42,
    }
    for key, value in defaults.items():
        synth_obj.setdefault(key, value)
    try:
        synth_cfg = synth.SynthConfig(profile=profile, **synth_obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section 'synth': {exc}") from None

    preprocess_cfg = _build_section(
        "preprocess",
        obj.get("preprocess", {}),
        {"smooth_window", "active_threshold_frac", "noise_floor", "feature_length", "plateau_core_frac"},
        preprocess.PreprocessConfig,
    )
    train_obj = dict(obj.get("train", {}))
    train_obj.setdefault("seed", 7)
    train_cfg = _build_section(
        "train",
        train_obj,
        {"learning_rate", "momentum", "epochs", "batch_size", "seed", "class_weights"},
        model.TrainConfig,
    )
    conformal_obj = obj.get("conformal", {})
    if not isinstance(conformal_obj, dict):
        raise ConfigError("section 'conformal' must be an object")
    _check_keys("conformal", conformal_obj, {"alpha"})
    alpha = conformal_obj.get("alpha", 0.05)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) or not 0 < alpha < 1:
        raise ConfigError("conformal.alpha must be in (0, 1)")

    split_obj = dict(obj.get("split", {}))
    split_obj.setdefault("seed", 11)
    split_spec = _build_section(
        "split",
        split_obj,
        {"train_frac", "calibration_frac_of_test", "seed"},
        evaluation.SplitSpec,
    )
    paths = obj.get("paths", {})
    if not isinstance(paths, dict) or not all(isinstance(v, str) for v in paths.values()):
        raise ConfigError("section 'paths' must map names to path strings")
    _check_keys("paths", paths, {"dataset", "features", "model", "predictor"})

    cfg = RunConfig(
        synth_cfg=synth_cfg,
        counts=counts,
        severity_range=(float(severity_range[0]), float(severity_range[1])),
        preprocess_cfg=preprocess_cfg,
        train_cfg=train_cfg,
        alpha=float(alpha),
        split_spec=split_spec,
        paths=dict(paths),
    )
    if seed_override is not None:
        cfg = replace(
            cfg,
            synth_cfg=replace(cfg.synth_cfg, seed=seed_override),
            train_cfg=replace(cfg.train_cfg, seed=seed_override),
            split_spec=replace(cfg.split_spec, seed=seed_override),
        )
    return cfg


def load_run_config(path: "str | None", seed_override: "int | None" = None) -> RunConfig:
    if path is None:
        return parse_run_config({}, seed_override)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from None
    return parse_run_config(obj, seed_override)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _class_counts_obj(ds: Dataset) -> dict:
    return {cls.name: n for cls, n in sorted(ds.class_counts().items(), key=lambda kv: int(kv[0]))}


def _manoeuvre_failure(stage: str, manoeuvre_id: str, exc: PmDiagError) -> StageError:
    return StageError(stage, PmDiagError(f"manoeuvre {manoeuvre_id!r}: {exc}"))


def _preprocess_dataset(ds: Dataset, cfg: preprocess.PreprocessConfig):
    """Features in dataset order; failures name the offending manoeuvre."""
    records = []
    for m in ds:
        try:
            records.append((preprocess.preprocess(m, cfg), m.label))
        except PmDiagError as exc:
            raise _manoeuvre_failure("preprocess", m.id, exc) from exc
    return records


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (StageError, DatasetIoError):
        raise
    except PmDiagError as exc:
        raise StageError(name, exc) from exc


def cmd_generate(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    ds = _stage(
        "generate", synth.generate_dataset, cfg.counts, cfg.synth_cfg, cfg.severity_range
    )
    save_dataset(ds, out / DATASET_FILE)
    for cls in sorted(cfg.counts, key=int):
        print(f"{cls.name}: {cfg.counts[cls]}")
    print(f"wrote {len(ds)} manoeuvres to {out / DATASET_FILE}")
    return 0


def _start_forked(fn, *args):
    """Start fn(*args) in a forked child process and return a function that
    waits for the child and returns fn's result.

    Only for work that starts no BLAS thread, so that forking is safe.
    Where no process can be forked (no fork start method, or the fork
    fails), or the child did not send its result and exit 0, the returned
    function runs fn(*args) in this process, so the caller gets the
    in-process result, or the in-process exception with its exit code and
    stderr.
    """
    # imported here: every CLI call pays the module-level imports, and only
    # pipeline and large inputs fork
    import multiprocessing

    def here():
        return fn(*args)

    if "fork" not in multiprocessing.get_all_start_methods():
        return here
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(sender, fn, args))
    try:
        child.start()
    except OSError:  # no process to spare (EAGAIN, ENOMEM): run here
        receiver.close()
        return here
    finally:
        sender.close()

    def join():
        # receive before joining: a result larger than the pipe buffer holds
        # the child in send until it is read
        with receiver:
            try:
                sent = [receiver.recv()]
            except EOFError:  # the child failed before it sent a result
                sent = []
        child.join()
        ok = sent and child.exitcode == 0
        child.close()
        return sent[0] if ok else here()

    return join


def _send_result(sender, fn, args) -> None:
    """Body of a forked child: send fn(*args) to the parent."""
    try:
        sender.send(fn(*args))
    except Exception:
        # exit 1 without a traceback: the parent runs fn again and reports
        # the failure as its own
        sys.exit(1)


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Chunk(NamedTuple):
    """What one process loaded from a contiguous run of dataset lines.

    `ids` and `labels` hold every manoeuvre parsed, in line order, and
    `features` one row per id unless `error` or `failure` is set. `error` is
    the first load error, where the chunk ends; `failure` is the manoeuvre id
    and error of the first preprocess failure.
    """

    ids: list
    features: np.ndarray
    labels: list
    error: "ParseError | ValidationError | None"
    failure: "tuple[str, PmDiagError] | None"


def _load_chunk(text: str, start: int, end: int, cfg: preprocess.PreprocessConfig) -> _Chunk:
    """Parse, validate and preprocess the dataset lines in text[start:end].

    Errors are returned, not raised, because the parent ranks them across
    chunks. After a preprocess failure the chunk goes on parsing: a later
    load error or duplicate id outranks it.
    """
    ids, values, labels = [], [], []
    error = failure = None
    try:
        for m in iter_manoeuvres(text, start, end):
            ids.append(m.id)
            labels.append(m.label)
            if failure is None:
                try:
                    values.append(preprocess.preprocess(m, cfg).values)
                except PmDiagError as exc:
                    failure = (m.id, exc)
    except (ParseError, ValidationError) as exc:
        error = exc
    features = np.stack(values) if values else np.empty((0, cfg.feature_length))
    return _Chunk(ids, features, labels, error, failure)


def _load_records(path, cfg: preprocess.PreprocessConfig):
    """(FeatureVector, label) records of a dataset file, in line order.

    From FORK_MIN_LINES line feeds up, the file is cut at line ends into one
    chunk of about equal size per CPU: this process loads the first while a
    forked child loads each other one. Errors come out as from load_dataset
    followed by _preprocess_dataset: the first load error in line order,
    then the first repeated id, then the first preprocess failure.
    """
    text = read_jsonl_text(path)
    procs = _cpus() if text.count("\n") >= FORK_MIN_LINES else 1
    cuts = [0]
    for k in range(1, procs):
        lf = text.find("\n", max(cuts[-1], len(text) * k // procs))
        cuts.append(len(text) if lf < 0 else lf + 1)
    cuts.append(len(text))
    joins = [_start_forked(_load_chunk, text, a, b, cfg) for a, b in zip(cuts[1:], cuts[2:])]
    try:
        own = _load_chunk(text, 0, cuts[1], cfg)
    finally:
        others = [join() for join in joins]
    chunks = [own, *others]
    for chunk in chunks:
        if chunk.error is not None:
            raise chunk.error
    check_unique_ids(mid for chunk in chunks for mid in chunk.ids)
    for chunk in chunks:
        if chunk.failure is not None:
            raise _manoeuvre_failure("preprocess", *chunk.failure)
    return [
        (preprocess.FeatureVector(values, mid), label)
        for chunk in chunks
        for mid, values, label in zip(chunk.ids, chunk.features, chunk.labels)
    ]


def cmd_preprocess(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    dataset_path = cfg.paths.get("dataset", str(out / DATASET_FILE))
    records = _stage("load", _load_records, dataset_path, cfg.preprocess_cfg)
    preprocess.save_features(records, out / FEATURES_FILE)
    print(f"wrote {len(records)} feature vectors to {out / FEATURES_FILE}")
    return 0


def _labelled(records, stage: str):
    labelled = [(fv, label) for fv, label in records if label is not None]
    if not labelled:
        raise StageError(stage, PmDiagError("no labelled features"))
    return labelled


def _train_weights(cfg: RunConfig, labelled) -> model.TrainConfig:
    """Fill class weights from data counts unless the config pinned them."""
    if cfg.train_cfg.class_weights != (1.0,) * len(FaultClass):
        return cfg.train_cfg
    counts: dict[FaultClass, int] = {}
    for _, label in labelled:
        counts[label] = counts.get(label, 0) + 1
    weights = model.weight_vector(model.class_weights(counts))
    return replace(cfg.train_cfg, class_weights=weights)


def _train(cfg: RunConfig, labelled) -> "tuple[model.TrainConfig, model.TrainResult]":
    train_cfg = _stage("train", _train_weights, cfg, labelled)
    return train_cfg, _stage("train", model.train, labelled, train_cfg)


def _calibrate_and_save(mdl, labelled, alpha: float, out: Path) -> conformal.ConformalPredictor:
    predictor = _stage("calibrate", conformal.calibrate, mdl, labelled, alpha)
    conformal.save_predictor(predictor, out / PREDICTOR_FILE)
    return predictor


def _diagnose_rows(predictor, mdl, records, stage: str = "diagnose"):
    """(label, Diagnosis) per (FeatureVector, label) record, in order; failures
    name the offending manoeuvre."""
    rows = []
    for fv, label in records:
        try:
            rows.append((label, conformal.diagnose(predictor, mdl, fv)))
        except PmDiagError as exc:
            raise _manoeuvre_failure(stage, fv.source_id, exc) from exc
    return rows


def _metrics(classified, covered) -> evaluation.MetricsReport:
    """Classification metrics over `classified` rows, coverage over `covered` rows."""
    predictions = [(d.argmax_class, label) for label, d in classified]
    coverage, mean_size = evaluation.coverage_eval(covered)
    return evaluation.build_metrics(predictions, coverage, mean_size)


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    records = _stage("load", preprocess.load_features, features_path)
    labelled = _labelled(records, "train")
    train_cfg, result = _train(cfg, labelled)
    model.save_model(result.model, out / MODEL_FILE, train_cfg, provenance=str(features_path))
    evaluation.write_report({"epoch_losses": result.epoch_losses}, out / TRAINING_LOG_FILE)
    print(f"trained on {len(labelled)} features; final loss {result.epoch_losses[-1]:.6f}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    model_path = cfg.paths.get("model", str(out / MODEL_FILE))
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    mdl = _stage("load", model.load_model, model_path)
    records = _stage("load", preprocess.load_features, features_path)
    labelled = _labelled(records, "calibrate")
    predictor = _calibrate_and_save(mdl, labelled, cfg.alpha, out)
    print(
        f"calibrated on {predictor.n_calibration} features: "
        f"alpha={predictor.alpha} qhat={predictor.qhat:.6f}"
    )
    return 0


def cmd_diagnose(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    model_path = args.model or cfg.paths.get("model", str(out / MODEL_FILE))
    predictor_path = args.predictor or cfg.paths.get("predictor", str(out / PREDICTOR_FILE))
    dataset_path = args.dataset or cfg.paths.get("dataset", str(out / DATASET_FILE))
    mdl = _stage("load", model.load_model, model_path)
    predictor = _stage("load", conformal.load_predictor, predictor_path)
    conformal.check_digest(predictor, mdl)
    records = _stage("load", _load_records, dataset_path, cfg.preprocess_cfg)
    diagnoses = [d for _, d in _diagnose_rows(predictor, mdl, records)]
    conformal.save_diagnoses(diagnoses, out / DIAGNOSES_JSONL)
    guarantee = 100.0 * (1.0 - predictor.alpha)
    for d in diagnoses:
        members = ", ".join(f"{cls.name}:{prob:.3f}" for cls, prob in d.prediction_set)
        print(f"{d.source_id}: {{{members}}} (set covers the true class at {guarantee:.0f}%)")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args)
    model_path = cfg.paths.get("model", str(out / MODEL_FILE))
    predictor_path = cfg.paths.get("predictor", str(out / PREDICTOR_FILE))
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    mdl = _stage("load", model.load_model, model_path)
    predictor = _stage("load", conformal.load_predictor, predictor_path)
    conformal.check_digest(predictor, mdl)
    records = _stage("load", preprocess.load_features, features_path)
    rows = _diagnose_rows(predictor, mdl, _labelled(records, "evaluate"), "evaluate")
    metrics = _metrics(rows, rows)
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.to_obj(),
        "metrics": metrics.to_obj(),
    }
    evaluation.write_report(report, out / REPORT_FILE)
    evaluation.write_diagnoses_csv(rows, out / DIAGNOSES_CSV)
    print(
        f"precision={metrics.precision:.4f} fpr={metrics.fpr:.4f} "
        f"fnr={metrics.fnr:.4f} coverage={metrics.coverage:.4f}"
    )
    return 0


def _save_inputs(ds: Dataset, records, out: Path) -> None:
    save_dataset(ds, out / DATASET_FILE)
    preprocess.save_features(records, out / FEATURES_FILE)


def cmd_pipeline(args) -> int:
    cfg = load_run_config(args.config, args.seed)
    out = _out_dir(args)

    if "dataset" in cfg.paths:
        ds = _stage("load", load_dataset, cfg.paths["dataset"])
    else:
        ds = _stage(
            "generate", synth.generate_dataset, cfg.counts, cfg.synth_cfg, cfg.severity_range
        )

    try:
        records = _preprocess_dataset(ds, cfg.preprocess_cfg)
    except StageError:
        # a run that fails here still leaves the dataset it failed on
        save_dataset(ds, out / DATASET_FILE)
        raise
    features_by_id = {fv.source_id: (fv, label) for fv, label in records}

    # the input files are written on a second core while training runs, and
    # are complete once joined, also when a stage here failed; model.json is
    # written only after that. A write failure reaches the join, and so
    # outranks a failure here, as it would if the files were written first.
    inputs_saved = _start_forked(_save_inputs, ds, records, out)
    try:
        train_ds, test_ds = _stage("split", evaluation.stratified_split, ds, cfg.split_spec)
        train_records = [features_by_id[m.id] for m in train_ds]
        train_cfg, result = _train(cfg, train_records)
    finally:
        inputs_saved()
    model.save_model(result.model, out / MODEL_FILE, train_cfg, provenance=ds.provenance)

    cal_ds, hold_ds = _stage("calibrate", evaluation.split_calibration, test_ds, cfg.split_spec)
    cal_records = [features_by_id[m.id] for m in cal_ds]
    predictor = _calibrate_and_save(result.model, cal_records, cfg.alpha, out)

    # each test manoeuvre is diagnosed once: classification metrics over the
    # whole test split, coverage and the CSV over its holdout half
    test_records = [features_by_id[m.id] for m in test_ds]
    test_rows = _diagnose_rows(predictor, result.model, test_records)
    rows_by_id = {d.source_id: (label, d) for label, d in test_rows}
    hold_rows = [rows_by_id[m.id] for m in hold_ds]
    metrics = _metrics(test_rows, hold_rows)

    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.to_obj(),
        "provenance": {
            "dataset": ds.provenance,
            "model_digest": predictor.model_digest,
        },
        "counts": {
            "dataset": _class_counts_obj(ds),
            "train": _class_counts_obj(train_ds),
            "test": _class_counts_obj(test_ds),
            "calibration": _class_counts_obj(cal_ds),
            "holdout": _class_counts_obj(hold_ds),
        },
        "conformal": {
            "alpha": predictor.alpha,
            "qhat": predictor.qhat,
            "n_calibration": predictor.n_calibration,
        },
        "metrics": metrics.to_obj(),
        "training_log": result.epoch_losses,
    }
    evaluation.write_report(report, out / REPORT_FILE)
    evaluation.write_diagnoses_csv(hold_rows, out / DIAGNOSES_CSV)
    print(
        f"pipeline done: precision={metrics.precision:.4f} fpr={metrics.fpr:.4f} "
        f"fnr={metrics.fnr:.4f} coverage={metrics.coverage:.4f} "
        f"mean_set_size={metrics.mean_set_size:.2f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run config JSON (defaults apply when omitted)")
    common.add_argument("--out", default="out", help="output directory (default: ./out)")
    common.add_argument("--seed", type=int, help="override every config seed")

    parser = argparse.ArgumentParser(
        prog="pm-diag",
        description="Point-machine power-signal diagnostics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", parents=[common], help="generate a synthetic dataset").set_defaults(
        func=cmd_generate
    )
    sub.add_parser("preprocess", parents=[common], help="dataset to feature vectors").set_defaults(
        func=cmd_preprocess
    )
    sub.add_parser("train", parents=[common], help="train the classifier").set_defaults(
        func=cmd_train
    )
    sub.add_parser(
        "calibrate", parents=[common], help="calibrate the conformal predictor"
    ).set_defaults(func=cmd_calibrate)
    diag = sub.add_parser(
        "diagnose", parents=[common], help="diagnose raw manoeuvres with prediction sets"
    )
    diag.add_argument("--model", help="model file (default: <out>/model.json)")
    diag.add_argument("--predictor", help="predictor file (default: <out>/predictor.json)")
    diag.add_argument("--dataset", help="dataset file (default: <out>/dataset.jsonl)")
    diag.set_defaults(func=cmd_diagnose)
    sub.add_parser(
        "evaluate", parents=[common], help="metrics and report for labelled features"
    ).set_defaults(func=cmd_evaluate)
    sub.add_parser("pipeline", parents=[common], help="run every stage end to end").set_defaults(
        func=cmd_pipeline
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except conformal.DigestMismatchError as exc:
        print(f"digest mismatch: {exc}", file=sys.stderr)
        return EXIT_DIGEST
    except StageError as exc:
        print(f"pipeline failure in {exc.stage}: {exc.cause}", file=sys.stderr)
        return EXIT_STAGE
    except (DatasetIoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
