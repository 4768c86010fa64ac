"""Command-line entry point: reproducible runs from a JSON config.

Subcommands: generate, preprocess, train, calibrate, diagnose, evaluate,
pipeline. Exit codes: 0 success, 2 config error, 3 I/O error, 4 pipeline
stage failure (stage named on stderr), 5 model/predictor digest mismatch.
Output files are written atomically, so failures never leave partial files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
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
DIAGNOSES_JSONL = "diagnoses.jsonl"

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STAGE = 4
EXIT_DIGEST = 5

# A dataset file with fewer lines is loaded in this process alone. One fork,
# its pipe and the reap cost about 4.5 ms, against about 0.6 ms to load and
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


def _counts_obj(counts: "dict[FaultClass, int]") -> dict:
    """Class name to count, in class-code order."""
    return {cls.name: n for cls, n in sorted(counts.items(), key=lambda kv: int(kv[0]))}


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
                **asdict(self.synth_cfg),
                "counts": _counts_obj(self.counts),
                "severity_range": list(self.severity_range),
            },
            "preprocess": asdict(self.preprocess_cfg),
            "train": asdict(self.train_cfg),
            "conformal": {"alpha": self.alpha},
            "split": asdict(self.split_spec),
            "paths": dict(self.paths),
        }


def _check_section(section: str, obj, allowed: set) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")


def _field_names(factory) -> set:
    return {f.name for f in fields(factory)}


def _build_section(section: str, obj, factory, **defaults):
    """factory(**obj) over `defaults`; keys are the factory's fields, and an `int` field takes an int."""
    _check_section(section, obj, _field_names(factory))
    for f in fields(factory):
        if f.type in (int, "int") and type(obj.get(f.name, 0)) is not int:  # bool is no integer
            raise ConfigError(f"section {section!r}: {f.name} must be an integer, not {obj[f.name]!r}")
    try:
        return factory(**{**defaults, **obj})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {section!r}: {exc}") from None


def _parse_profile(obj) -> TechnologyProfile:
    if isinstance(obj, str):
        if obj not in synth.DEFAULT_PROFILES:
            raise ConfigError(
                f"unknown profile {obj!r}; known: {sorted(synth.DEFAULT_PROFILES)}"
            )
        return synth.DEFAULT_PROFILES[obj]
    return _build_section("synth.profile", obj, TechnologyProfile)


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


def _check_finite(obj, where: str) -> None:
    """Reject NaN and the infinities: json.loads reads them, and NaN fails no range check."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ConfigError(f"{where} must be a finite number, not {obj!r}")
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            _check_finite(value, f"{where}.{key}")


def parse_run_config(obj: dict, seed_override: "int | None" = None) -> RunConfig:
    """Validate and materialize a RunConfig; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    _check_finite(obj, "config")
    _check_section("<root>", obj, {"synth", "preprocess", "train", "conformal", "split", "paths"})

    synth_obj = obj.get("synth", {})
    _check_section("synth", synth_obj, _field_names(synth.SynthConfig) | {"counts", "severity_range"})
    profile = _parse_profile(synth_obj.get("profile", "MJ"))
    counts = _parse_counts(synth_obj.get("counts", {c.name: n for c, n in DEFAULT_COUNTS.items()}))
    severity_range = synth_obj.get("severity_range", [0.3, 1.0])
    if (
        not isinstance(severity_range, (list, tuple))
        or len(severity_range) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in severity_range)
    ):
        raise ConfigError("synth.severity_range must be [lo, hi]")
    if not 0 <= severity_range[0] <= severity_range[1] <= 1:
        raise ConfigError("synth.severity_range must satisfy 0 <= lo <= hi <= 1")
    synth_cfg = _build_section(
        "synth",
        {k: v for k, v in synth_obj.items() if k not in ("profile", "counts", "severity_range")},
        synth.SynthConfig,
        profile=profile,
        noise_sigma=0.03 * profile.plateau_amps,
        amplitude_jitter=0.05,
        duration_jitter=0.05,
        seed=42,
    )

    preprocess_cfg = _build_section("preprocess", obj.get("preprocess", {}), preprocess.PreprocessConfig)
    train_cfg = _build_section("train", obj.get("train", {}), model.TrainConfig, seed=7)
    conformal_obj = obj.get("conformal", {})
    _check_section("conformal", conformal_obj, {"alpha"})
    alpha = conformal_obj.get("alpha", 0.05)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool) or not 0 < alpha < 1:
        raise ConfigError("conformal.alpha must be in (0, 1)")

    split_spec = _build_section("split", obj.get("split", {}), evaluation.SplitSpec, seed=11)
    paths = obj.get("paths", {})
    if not isinstance(paths, dict) or not all(isinstance(v, str) for v in paths.values()):
        raise ConfigError("section 'paths' must map names to path strings")
    _check_section("paths", paths, {"dataset", "features", "model", "predictor"})

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
        try:
            cfg = replace(
                cfg,
                synth_cfg=replace(cfg.synth_cfg, seed=seed_override),
                train_cfg=replace(cfg.train_cfg, seed=seed_override),
                split_spec=replace(cfg.split_spec, seed=seed_override),
            )
        except ValueError as exc:
            raise ConfigError(f"--seed {seed_override}: {exc}") from None
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


def _manoeuvre_failure(stage: str, manoeuvre_id: str, exc: PmDiagError) -> StageError:
    return StageError(stage, PmDiagError(f"manoeuvre {manoeuvre_id!r}: {exc}"))


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (StageError, DatasetIoError):
        raise
    except PmDiagError as exc:
        raise StageError(name, exc) from exc


def cmd_generate(args, cfg: RunConfig, out: Path) -> int:
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
    """What one process made of a run of manoeuvres, such as a contiguous run
    of dataset lines.

    `ids` and `labels` hold every manoeuvre read, in order, and `features`
    one row per id unless `error` or `failure` is set. `error` is the first
    load error, where the chunk ends; `failure` is the manoeuvre id and error
    of the first preprocess failure.
    """

    ids: list
    features: np.ndarray
    labels: list
    error: "ParseError | ValidationError | None"
    failure: "tuple[str, PmDiagError] | None"


def _features(manoeuvres, cfg: preprocess.PreprocessConfig) -> _Chunk:
    """Preprocess each manoeuvre of an iterable, such as `iter_manoeuvres`,
    which parses and validates dataset lines as it goes.

    Errors are returned, not raised, because `_records` ranks them across
    chunks. After a preprocess failure the chunk goes on reading: a later
    load error or duplicate id outranks it.
    """
    ids, values, labels = [], [], []
    error = failure = None
    try:
        for m in manoeuvres:
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
    followed by preprocessing each manoeuvre in order (see `_records`).
    """
    text = read_jsonl_text(path)
    procs = _cpus() if text.count("\n") >= FORK_MIN_LINES else 1
    cuts = [0]
    for k in range(1, procs):
        lf = text.find("\n", max(cuts[-1], len(text) * k // procs))
        cuts.append(len(text) if lf < 0 else lf + 1)
    cuts.append(len(text))
    # a chunk's generator runs once: in its child, or here if no child sent it
    joins = [
        _start_forked(_features, iter_manoeuvres(text, a, b), cfg) for a, b in zip(cuts[1:], cuts[2:])
    ]
    try:
        own = _features(iter_manoeuvres(text, 0, cuts[1]), cfg)
    finally:
        others = [join() for join in joins]
    return _records([own, *others])


def _records(chunks) -> list:
    """(FeatureVector, label) records of the chunks, in order.

    Raises the error that ranks first across the chunks: the first load
    error, then the first repeated id, then the first preprocess failure.
    """
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


def cmd_preprocess(args, cfg: RunConfig, out: Path) -> int:
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
    # the input width is the features' (model.train rejects an empty set first)
    width = labelled[0][0].values.size if labelled else 0
    layer_dims = (width, *model.DEFAULT_LAYER_DIMS[1:])
    return train_cfg, _stage("train", model.train, labelled, train_cfg, layer_dims)


def _probabilities(mdl, records, stage: str) -> np.ndarray:
    """Class probabilities of (FeatureVector, label) records, one row per
    record, in order, from one `model.forward_rows` call: each row is its own
    one-row product, so a row's bits do not depend on the rows beside it. A
    failure names the first failing manoeuvre."""
    x = np.stack([fv.values for fv, _ in records]) if records else np.empty((0, mdl.layer_dims[0]))
    try:
        return model.forward_rows(mdl, x)
    except model.RowError as exc:
        raise _manoeuvre_failure(stage, records[exc.row][0].source_id, exc) from exc


def _diagnoses(predictor, records, probs) -> list:
    """(label, Diagnosis) per (FeatureVector, label) record and its row of `probs`."""
    diagnosed = conformal.diagnoses(predictor, [fv.source_id for fv, _ in records], probs)
    return [(label, d) for (_, label), d in zip(records, diagnosed)]


def _metrics(classified, covered) -> evaluation.MetricsReport:
    """Classification metrics over `classified` rows, coverage over `covered` rows."""
    predictions = [(d.argmax_class, label) for label, d in classified]
    coverage, mean_size = evaluation.coverage_eval(covered)
    return evaluation.build_metrics(predictions, coverage, mean_size)


def cmd_train(args, cfg: RunConfig, out: Path) -> int:
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    records = _stage("load", preprocess.load_features, features_path)
    labelled = _labelled(records, "train")
    train_cfg, result = _train(cfg, labelled)
    model.save_model(result.model, out / MODEL_FILE, train_cfg, provenance=str(features_path))
    evaluation.write_report({"epoch_losses": result.epoch_losses}, out / TRAINING_LOG_FILE)
    print(f"trained on {len(labelled)} features; final loss {result.epoch_losses[-1]:.6f}")
    return 0


def cmd_calibrate(args, cfg: RunConfig, out: Path) -> int:
    model_path = cfg.paths.get("model", str(out / MODEL_FILE))
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    mdl = _stage("load", model.load_model, model_path)
    records = _stage("load", preprocess.load_features, features_path)
    labelled = _labelled(records, "calibrate")
    probs = _probabilities(mdl, labelled, "calibrate")
    scored = [(p, label) for p, (_, label) in zip(probs, labelled)]
    predictor = _stage("calibrate", conformal.calibrate_probs, scored, cfg.alpha, model.model_digest(mdl))
    conformal.save_predictor(predictor, out / PREDICTOR_FILE)
    print(
        f"calibrated on {predictor.n_calibration} features: "
        f"alpha={predictor.alpha} qhat={predictor.qhat:.6f}"
    )
    return 0


def cmd_diagnose(args, cfg: RunConfig, out: Path) -> int:
    model_path = args.model or cfg.paths.get("model", str(out / MODEL_FILE))
    predictor_path = args.predictor or cfg.paths.get("predictor", str(out / PREDICTOR_FILE))
    dataset_path = args.dataset or cfg.paths.get("dataset", str(out / DATASET_FILE))
    mdl = _stage("load", model.load_model, model_path)
    width = cfg.preprocess_cfg.feature_length
    if width != mdl.layer_dims[0]:  # checked before the dataset load, most of a call
        raise StageError("diagnose", PmDiagError(
            f"preprocess.feature_length {width} != the model's input width {mdl.layer_dims[0]}"))
    predictor = _stage("load", conformal.load_predictor, predictor_path)
    conformal.check_digest(predictor, mdl)
    records = _stage("load", _load_records, dataset_path, cfg.preprocess_cfg)
    probs = _probabilities(mdl, records, "diagnose")
    rows = _stage("diagnose", _diagnoses, predictor, records, probs)
    conformal.save_diagnoses(rows, out / DIAGNOSES_JSONL)
    # 1 - alpha as written, not rounded up: 97.5, 99.5; ten digits drop the
    # float noise of 100 * (1 - alpha)
    guarantee = f"{100.0 * (1.0 - predictor.alpha):.10g}"
    for _, d in rows:
        members = ", ".join(f"{cls.name}:{prob:.3f}" for cls, prob in d.prediction_set)
        print(f"{d.source_id}: {{{members}}} (set covers the true class at {guarantee}%)")
    return 0


def cmd_evaluate(args, cfg: RunConfig, out: Path) -> int:
    model_path = cfg.paths.get("model", str(out / MODEL_FILE))
    predictor_path = cfg.paths.get("predictor", str(out / PREDICTOR_FILE))
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    mdl = _stage("load", model.load_model, model_path)
    predictor = _stage("load", conformal.load_predictor, predictor_path)
    conformal.check_digest(predictor, mdl)
    records = _stage("load", preprocess.load_features, features_path)
    labelled = _labelled(records, "evaluate")
    probs = _probabilities(mdl, labelled, "evaluate")
    rows = _stage("evaluate", _diagnoses, predictor, labelled, probs)
    metrics = _metrics(rows, rows)
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.to_obj(),
        "metrics": asdict(metrics),
    }
    evaluation.write_report(report, out / REPORT_FILE)
    conformal.save_diagnoses(rows, out / DIAGNOSES_JSONL)
    print(
        f"precision={metrics.precision:.4f} fpr={metrics.fpr:.4f} "
        f"fnr={metrics.fnr:.4f} coverage={metrics.coverage:.4f}"
    )
    return 0


def _save_inputs(ds: Dataset, records, out: Path) -> None:
    save_dataset(ds, out / DATASET_FILE)
    preprocess.save_features(records, out / FEATURES_FILE)


def cmd_pipeline(args, cfg: RunConfig, out: Path) -> int:
    if "dataset" in cfg.paths:
        ds = _stage("load", load_dataset, cfg.paths["dataset"])
    else:
        ds = _stage(
            "generate", synth.generate_dataset, cfg.counts, cfg.synth_cfg, cfg.severity_range
        )

    try:
        records = _records([_features(ds, cfg.preprocess_cfg)])
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
    # each test manoeuvre goes through the model once: calibration reads the
    # probabilities of the calibration half, the classification metrics the
    # whole test split's diagnoses, coverage and diagnoses.jsonl the holdout's
    test_records = [features_by_id[m.id] for m in test_ds]
    probs = _probabilities(result.model, test_records, "calibrate")
    scored = {fv.source_id: (p, label) for (fv, label), p in zip(test_records, probs)}
    predictor = _stage(
        "calibrate",
        conformal.calibrate_probs,
        [scored[m.id] for m in cal_ds],
        cfg.alpha,
        model.model_digest(result.model),
    )
    conformal.save_predictor(predictor, out / PREDICTOR_FILE)
    test_rows = _stage("diagnose", _diagnoses, predictor, test_records, probs)
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
            "dataset": _counts_obj(ds.class_counts()),
            "train": _counts_obj(train_ds.class_counts()),
            "test": _counts_obj(test_ds.class_counts()),
            "calibration": _counts_obj(cal_ds.class_counts()),
            "holdout": _counts_obj(hold_ds.class_counts()),
        },
        "conformal": {
            "alpha": predictor.alpha,
            "qhat": predictor.qhat,
            "n_calibration": predictor.n_calibration,
        },
        "metrics": asdict(metrics),
        "training_log": result.epoch_losses,
    }
    evaluation.write_report(report, out / REPORT_FILE)
    conformal.save_diagnoses(hold_rows, out / DIAGNOSES_JSONL)
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
        cfg = load_run_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out)
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
