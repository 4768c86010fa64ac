"""Command-line entry point: reproducible runs from a JSON config.

Subcommands: generate, preprocess, train, calibrate, diagnose, evaluate,
pipeline. Exit codes: 0 success, 2 config error, 3 I/O error, 4 pipeline
stage failure (stage named on stderr), 5 model/predictor digest mismatch.
Output files are written atomically, so failures never leave partial files.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import conformal, evaluation, model, pieces, preprocess, synth
from .config import ConfigError, RunConfig, counts_obj, load_run_config
from .core import (
    DatasetIoError,
    ParseError,
    PmDiagError,
    ValidationError,
    atomic_write_text,
    check_unique_ids,
    decode_text,
    iter_manoeuvres,
    remove_temp_files,
    save_dataset,
    valid_manoeuvres,
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


class StageError(PmDiagError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _counts_at(labels, **parts) -> dict:
    """Each part's counts_obj of the `labels` at its positions."""
    return {name: counts_obj(collections.Counter(labels[p] for p in at)) for name, at in parts.items()}


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
    plan = _stage("generate", synth.plan_dataset, cfg.counts, cfg.synth_cfg, cfg.severity_range)
    # each trace is written as it is generated, as pipeline's writer does
    _stage("generate", save_dataset, plan.manoeuvres(), out / DATASET_FILE)
    for cls in sorted(cfg.counts, key=int):
        print(f"{cls.name}: {cfg.counts[cls]}")
    print(f"wrote {len(plan)} manoeuvres to {out / DATASET_FILE}")
    return 0


class _Chunk(NamedTuple):
    """What one process made of a run of manoeuvres, such as a piece of a
    dataset file.

    `ids` and `labels` hold every manoeuvre read, in order, and
    `manoeuvres` the manoeuvres themselves where they were loaded from a
    file; a generated piece holds none, since its traces are generated
    again where they are written (`_pipeline_inputs`). `features`, an
    (n, width) matrix, holds one row per id unless `error` or `failure` is
    set. `error` is the first load error, where the chunk ends, or the
    DatasetIoError of bytes that are not UTF-8; `failure` is the StageError
    of the first preprocess, or else scoring, failure; a child posts no
    chunk that holds either (`pieces.share`). A piece that diagnose or
    preprocess finished (`_load_piece`) keeps only its ids and the lists of
    lines made of it for the output file, `lines`, and for stdout, `shown`,
    and no features.
    """

    ids: list
    features: np.ndarray
    labels: list
    manoeuvres: "list | tuple" = ()
    error: "ParseError | ValidationError | DatasetIoError | None" = None
    failure: "StageError | None" = None
    lines: "list | tuple" = ()
    shown: "list | tuple" = ()


def _features(manoeuvres, cfg: preprocess.PreprocessConfig) -> _Chunk:
    """Preprocess the manoeuvres of an iterable that validates them, such as
    iter_manoeuvres, in one `preprocess.preprocess_rows` call.

    Errors are returned, not raised: `pieces.share` looks for them in every
    chunk (`_failed`), and `_check` raises them. A ParseError or
    ValidationError that the iterable raises is a load error, where the
    chunk ends. A preprocess failure does not end the chunk: a later load
    error or duplicate id outranks it.
    """
    read, error = [], None
    try:
        for m in manoeuvres:
            read.append(m)
    except (ParseError, ValidationError) as exc:
        error = exc
    rows, errors = preprocess.preprocess_rows(read, cfg)
    failure = next((_manoeuvre_failure("preprocess", m.id, exc) for m, exc in zip(read, errors) if exc), None)
    return _Chunk([m.id for m in read], rows, [m.label for m in read], read, error, failure)


def _failed(chunk: _Chunk) -> bool:
    """Whether a chunk holds a load error or a failure."""
    return chunk.error is not None or chunk.failure is not None


def _load(path, cfg: preprocess.PreprocessConfig, finish) -> list:
    """The pieces of a dataset file, each loaded and finished (`_load_piece`)
    on every CPU (`pieces.share`), in line order."""
    path = Path(path)
    return pieces.share(path, lambda data: _load_piece(data, path, cfg, finish), _failed)


def _load_piece(data: bytes, path: Path, cfg: preprocess.PreprocessConfig, finish) -> _Chunk:
    """The _Chunk of dataset bytes `data`, whole lines, as finish(chunk)
    returns it where it holds no error or failure. finish may raise the
    StageError of a scoring failure. An error numbers lines and bytes from
    the start of `data`; `pieces.share` loads a failed file again whole."""
    try:
        text = decode_text(data, path)
    except DatasetIoError as exc:
        return _Chunk([], np.empty((0, 0)), [], error=exc)
    chunk = _features(iter_manoeuvres(text), cfg)
    if _failed(chunk):
        return chunk
    try:
        return finish(chunk)
    except StageError as exc:
        return chunk._replace(failure=exc)


def _check(chunks) -> None:
    """Raise the errors of the chunks in the order one process meets them:
    the load error, then the first repeated id, then the failure. Only a
    lone piece holds an error or a failure (see pieces.share)."""
    for chunk in chunks:
        if chunk.error is not None:
            raise chunk.error
    check_unique_ids(mid for chunk in chunks for mid in chunk.ids)
    for chunk in chunks:
        if chunk.failure is not None:
            raise chunk.failure


def _features_lines(chunk: _Chunk) -> _Chunk:
    """preprocess's finish (see _load_piece): the ids and features.jsonl lines of a chunk."""
    lines = list(preprocess.features_lines(chunk.ids, chunk.features, chunk.labels))
    return _Chunk(chunk.ids, np.empty((0, 0)), [], lines=lines)


def cmd_preprocess(args, cfg: RunConfig, out: Path) -> int:
    dataset_path = cfg.paths.get("dataset", str(out / DATASET_FILE))
    chunks = _load(dataset_path, cfg.preprocess_cfg, _features_lines)
    _stage("load", _check, chunks)
    atomic_write_text(out / FEATURES_FILE, *(chunk.lines for chunk in chunks))
    print(f"wrote {sum(len(chunk.ids) for chunk in chunks)} feature vectors to {out / FEATURES_FILE}")
    return 0


def _labelled(features_path, stage: str) -> _Chunk:
    """The _Chunk of the labelled records of a features file, in file order."""
    records = _stage("load", preprocess.load_features, features_path)
    labelled = [(fv, label) for fv, label in records if label is not None]
    if not labelled:
        raise StageError(stage, PmDiagError("no labelled features"))
    return _Chunk([fv.source_id for fv, _ in labelled], np.stack([fv.values for fv, _ in labelled]),
                  [label for _, label in labelled])


def _train_config(cfg: RunConfig, labels) -> model.TrainConfig:
    """train's config for rows of FaultClass `labels`: class weights from
    their counts unless the config pinned them."""
    if cfg.class_weights_given:
        return cfg.train_cfg
    weights = _stage("train", model.class_weights, collections.Counter(labels))
    return replace(cfg.train_cfg, class_weights=model.weight_vector(weights))


def _probabilities(mdl, chunk: _Chunk, stage: str) -> np.ndarray:
    """Class probabilities of a chunk's feature rows, in order, from one
    `model.forward_rows` call: each row is its own one-row product, so a
    row's bits do not depend on the rows beside it, nor on the process that
    scores them. A bad row's failure names its manoeuvre; a matrix of
    another width than the model's names both widths and no manoeuvre."""
    try:
        return model.forward_rows(mdl, chunk.features)
    except model.DimensionMismatchError as exc:
        raise StageError(stage, exc) from exc
    except model.RowError as exc:
        raise _manoeuvre_failure(stage, chunk.ids[exc.row], exc) from exc


def _calibrate(cfg: RunConfig, mdl, labels, probs, out: Path) -> conformal.ConformalPredictor:
    """calibrate's step: the predictor calibrated on rows of true classes
    `labels` and of probabilities `probs` from `mdl`, written to predictor.json."""
    predictor = _stage("calibrate", conformal.calibrate_probs, probs, labels, cfg.conformal_cfg, model.model_digest(mdl))
    conformal.save_predictor(predictor, out / PREDICTOR_FILE)
    return predictor


def _evaluate(cfg: RunConfig, diagnosed, labels, covered: slice, out: Path, **extra) -> evaluation.MetricsReport:
    """evaluate's step over the conformal.Diagnoses of rows of true classes
    `labels`: classification metrics over every row, coverage over the rows
    `covered`, then report.json, with the `extra` keys beside the config and
    metrics, and the diagnoses.jsonl of the rows `covered`."""
    coverage, mean_size = evaluation.coverage_eval(diagnosed[covered], labels[covered])
    metrics = evaluation.build_metrics(diagnosed.classes[:, 0], labels, coverage, mean_size)
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.to_obj(),
        **extra,
        "metrics": asdict(metrics),
    }
    evaluation.write_report(report, out / REPORT_FILE)
    atomic_write_text(out / DIAGNOSES_JSONL, conformal.diagnoses_lines(diagnosed[covered], labels[covered]))
    return metrics


def cmd_train(args, cfg: RunConfig, out: Path) -> int:
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    labelled = _labelled(features_path, "train")
    train_cfg = _train_config(cfg, labelled.labels)
    result = _stage("train", model.train, labelled.features, labelled.labels, train_cfg)
    model.save_model(result.model, out / MODEL_FILE, train_cfg, provenance=str(features_path))
    evaluation.write_report({"epoch_losses": result.epoch_losses}, out / TRAINING_LOG_FILE)
    print(f"trained on {len(labelled.ids)} features; final loss {result.epoch_losses[-1]:.6f}")
    return 0


def cmd_calibrate(args, cfg: RunConfig, out: Path) -> int:
    model_path = cfg.paths.get("model", str(out / MODEL_FILE))
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    mdl = _stage("load", model.load_model, model_path)
    labelled = _labelled(features_path, "calibrate")
    predictor = _calibrate(cfg, mdl, labelled.labels, _probabilities(mdl, labelled, "calibrate"), out)
    print(
        f"calibrated on {predictor.n_calibration} features: "
        f"alpha={predictor.alpha} qhat={predictor.qhat:.6f}"
    )
    return 0


def _diagnosed(mdl, predictor, chunk: _Chunk) -> _Chunk:
    """diagnose's finish (see _load_piece): the ids, diagnoses.jsonl lines
    and stdout lines of a chunk."""
    d = _stage("diagnose", conformal.diagnoses, predictor, chunk.ids, _probabilities(mdl, chunk, "diagnose"))
    # 1 - alpha as written, not rounded up: 97.5, 99.5; ten digits drop the
    # float noise of 100 * (1 - alpha)
    guarantee = f"{100.0 * (1.0 - predictor.alpha):.10g}"
    shown = []
    for source_id, names, probabilities in d.sets():
        members = ", ".join(f"{name}:{prob:.3f}" for name, prob in zip(names, probabilities))
        shown_id = json.dumps(source_id, ensure_ascii=False)[1:-1]  # one line, whatever the id holds
        shown.append(f"{shown_id}: {{{members}}} (set covers the true class at {guarantee}%)\n")
    return _Chunk(chunk.ids, np.empty((0, 0)), [], lines=list(conformal.diagnoses_lines(d, chunk.labels)), shown=shown)


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
    # each piece is scored and its lines made where it is loaded
    chunks = _load(dataset_path, cfg.preprocess_cfg, lambda chunk: _diagnosed(mdl, predictor, chunk))
    _stage("load", _check, chunks)
    atomic_write_text(out / DIAGNOSES_JSONL, *(chunk.lines for chunk in chunks))
    sys.stdout.writelines(line for chunk in chunks for line in chunk.shown)
    return 0


def cmd_evaluate(args, cfg: RunConfig, out: Path) -> int:
    model_path = cfg.paths.get("model", str(out / MODEL_FILE))
    predictor_path = cfg.paths.get("predictor", str(out / PREDICTOR_FILE))
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    mdl = _stage("load", model.load_model, model_path)
    predictor = _stage("load", conformal.load_predictor, predictor_path)
    conformal.check_digest(predictor, mdl)
    labelled = _labelled(features_path, "evaluate")
    diagnosed = _stage("evaluate", conformal.diagnoses, predictor, labelled.ids,
                       _probabilities(mdl, labelled, "evaluate"))
    metrics = _evaluate(cfg, diagnosed, labelled.labels, slice(None), out)
    print(
        f"precision={metrics.precision:.4f} fpr={metrics.fpr:.4f} "
        f"fnr={metrics.fnr:.4f} coverage={metrics.coverage:.4f}"
    )
    return 0


def _pipeline_inputs(cfg: RunConfig) -> "tuple[str, list, Callable]":
    """The provenance of pipeline's dataset, its _Chunks in dataset order,
    each piece loaded (`_load`), or generated, and preprocessed on every
    CPU, and traces(), which returns the dataset's manoeuvres in order.

    A generated piece keeps no manoeuvre: traces() is
    `DatasetPlan.manoeuvres`, which generates them again (the plan gives
    the same bits every time), one at a time, so no process holds them all.
    Loaded manoeuvres are held, since parsing a trace again costs about
    twice as much as generating it.
    """
    pcfg = cfg.preprocess_cfg
    if "dataset" in cfg.paths:
        path = cfg.paths["dataset"]
        chunks = _load(path, pcfg, lambda chunk: chunk)
        manoeuvres = [m for chunk in chunks for m in chunk.manoeuvres]
        return str(Path(path)), chunks, lambda: manoeuvres
    plan = _stage("generate", synth.plan_dataset, cfg.counts, cfg.synth_cfg, cfg.severity_range)

    def generated(positions):
        # a generated manoeuvre that fails validation fails preprocessing,
        # unless one before it did; no later position is generated
        chunk = _features(valid_manoeuvres(map(plan.manoeuvre, positions)), pcfg)
        failure = chunk.failure or (chunk.error and StageError("preprocess", chunk.error))
        return chunk._replace(manoeuvres=(), error=None, failure=failure)

    chunks = _stage("generate", pieces.share, len(plan), generated, _failed)
    return plan.provenance, chunks, plan.manoeuvres


def cmd_pipeline(args, cfg: RunConfig, out: Path) -> int:
    provenance, chunks, traces = _pipeline_inputs(cfg)
    try:
        _stage("load", _check, chunks)
    except StageError as exc:
        if exc.stage == "preprocess":
            # a run that fails in preprocessing still leaves the dataset it failed on
            save_dataset(traces(), out / DATASET_FILE)
        raise
    ids = [mid for chunk in chunks for mid in chunk.ids]
    labels = [label for chunk in chunks for label in chunk.labels]

    def save_inputs(_post=None):
        # each file line by line: dataset.jsonl of the traces, and
        # features.jsonl of the pieces' rows, in dataset order
        save_dataset(traces(), out / DATASET_FILE)
        atomic_write_text(out / FEATURES_FILE, *(preprocess.features_lines(chunk.ids, chunk.features, chunk.labels)
                                                 for chunk in chunks))

    # a forked writer writes the input files while the split and training
    # run; they are complete once it is joined, also when either failed, and
    # model.json is written only after that. Where the writer could not be
    # forked or did not exit 0, the files are written here, so a write
    # failure is reported as without the writer, and outranks a failure in
    # the split or training.
    writer = pieces.start_forked(save_inputs)
    try:
        train_at, test_at = _stage("split", evaluation.stratified_split, ids, labels, cfg.split_spec)
        # the one matrix of the pieces' rows, training rows first: train
        # takes a view of it, and the test rows are gathered from it once
        row_of = np.empty(len(ids), dtype=np.intp)
        row_of[train_at + test_at] = np.arange(len(ids))
        x, start = np.empty((len(ids), cfg.preprocess_cfg.feature_length)), 0
        for chunk in chunks:
            x[row_of[start : start + len(chunk.ids)]] = chunk.features
            start += len(chunk.ids)
        train_labels = [labels[p] for p in train_at]
        train_cfg = _train_config(cfg, train_labels)
        result = _stage("train", model.train, x[: len(train_at)], train_labels, train_cfg)
    finally:
        if writer is None or not writer.join():
            if writer is not None:  # a writer that died within a write leaves its temp file
                for name in (DATASET_FILE, FEATURES_FILE):
                    remove_temp_files(out / name, writer.pid)
            save_inputs()
    del chunks  # their rows are written, and x holds them
    model.save_model(result.model, out / MODEL_FILE, train_cfg, provenance=provenance)

    cal_in, hold_in = _stage("calibrate", evaluation.split_calibration, [ids[p] for p in test_at],
                             [labels[p] for p in test_at], cfg.split_spec)
    cal_at, hold_at = [test_at[k] for k in cal_in], [test_at[k] for k in hold_in]
    # each test manoeuvre goes through the model once, the calibration half
    # first: calibration reads its probabilities, the classification metrics
    # the whole test split's diagnoses, coverage and diagnoses.jsonl the holdout's
    test = _Chunk([ids[p] for p in cal_at + hold_at], x[len(train_at) :][cal_in + hold_in],
                  [labels[p] for p in cal_at + hold_at])
    probs = _probabilities(result.model, test, "calibrate")
    predictor = _calibrate(cfg, result.model, test.labels[: len(cal_at)], probs[: len(cal_at)], out)
    diagnosed = _stage("diagnose", conformal.diagnoses, predictor, test.ids, probs)
    metrics = _evaluate(
        cfg,
        diagnosed,
        test.labels,
        slice(len(cal_at), None),
        out,
        provenance={"dataset": provenance, "model_digest": predictor.model_digest},
        counts=_counts_at(labels, dataset=range(len(ids)), train=train_at, test=test_at,
                          calibration=cal_at, holdout=hold_at),
        conformal={"alpha": predictor.alpha, "qhat": predictor.qhat, "n_calibration": predictor.n_calibration},
        training_log=result.epoch_losses,
    )
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

    for name, func, text in (
        ("generate", cmd_generate, "generate a synthetic dataset"),
        ("preprocess", cmd_preprocess, "dataset to feature vectors"),
        ("train", cmd_train, "train the classifier"),
        ("calibrate", cmd_calibrate, "calibrate the conformal predictor"),
        ("diagnose", cmd_diagnose, "diagnose raw manoeuvres with prediction sets"),
        ("evaluate", cmd_evaluate, "metrics and report for labelled features"),
        ("pipeline", cmd_pipeline, "run every stage end to end"),
    ):
        sub.add_parser(name, parents=[common], help=text).set_defaults(func=func)
    diag = sub.choices["diagnose"]
    diag.add_argument("--model", help="model file (default: <out>/model.json)")
    diag.add_argument("--predictor", help="predictor file (default: <out>/predictor.json)")
    diag.add_argument("--dataset", help="dataset file (default: <out>/dataset.jsonl)")
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
