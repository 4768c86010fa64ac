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
import math
import os
import select
import stat
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
    atomic_write_text,
    check_unique_ids,
    decode_text,
    iter_manoeuvres,
    json_error,
    load_dataset,
    save_dataset,
    validate_manoeuvre,
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

# A dataset file with fewer lines is one piece, loaded in this process alone.
# One fork, its pipe and the reap cost about 4.5 ms, against about 0.6 ms to
# load and preprocess one 760-sample manoeuvre, and a one-manoeuvre diagnose
# must never fork. A larger file is cut into pieces of about this many lines,
# so that the last piece to finish keeps the other CPUs waiting for about
# 40 ms at most (see _cuts). pipeline cuts the positions of its dataset the
# same way; generating and preprocessing a manoeuvre takes about 0.2 ms.
FORK_MIN_LINES = 64
# a piece's index in the token pipe of _share_pieces
_TOKEN_BYTES = 2
# every token goes into the pipe in one write that never blocks
_MAX_PIECES = select.PIPE_BUF // _TOKEN_BYTES
# A forked child posts a piece of a dataset (about 460 KB for 64 generated
# manoeuvres) while this process is busy with a piece of its own; a pipe of
# this size holds two such posts, so the child need not wait for the read.
# It is Linux's default pipe-max-size; elsewhere a pipe keeps its own size.
_PIPE_BYTES = 1 << 20
# bytes read at once while looking for a line end
_SCAN_BYTES = 1 << 16


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
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {json_error(exc)}") from None
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


def _start_forked(fn, *args) -> "_Child | None":
    """Start fn(post, *args) in a forked child process, where post(message)
    sends a picklable message to this process, and return the _Child that
    receives them; None where no process can be forked (no fork start
    method, or the fork fails).

    The child exits 0 once fn returns, and 1, printing nothing, if fn
    raises: the caller then does the child's work itself and reports any
    failure as its own. A child may run matrix products: numpy's OpenBLAS
    stops its threads before every fork (a pthread_atfork handler), so a
    child starts its own where a product needs them.
    """
    # imported here: every CLI call pays the module-level imports, and only
    # pipeline and large inputs fork
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    _widen(sender)
    process = ctx.Process(target=_run_child, args=(sender, fn, args))
    try:
        process.start()
    except OSError:  # no process to spare (EAGAIN, ENOMEM)
        receiver.close()
        return None
    finally:
        sender.close()
    return _Child(process, receiver)


def _widen(connection) -> None:
    """Let the pipe of `connection` hold _PIPE_BYTES where the system allows."""
    import fcntl

    try:
        fcntl.fcntl(connection.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or above the system's pipe-max-size
        pass


def _run_child(sender, fn, args) -> None:
    """Body of a forked child."""
    try:
        fn(sender.send, *args)
    except Exception:
        # exit 1 without a traceback: the parent does the work again and
        # reports the failure as its own
        sys.exit(1)


class _Child:
    """This process's end of a forked child: the messages it posts, and its exit."""

    def __init__(self, process, receiver):
        self.process = process
        self.receiver = receiver

    def recv(self, wait: bool = True):
        """The next message the child posted; None once the child has ended
        (exited or died), or, unless `wait`, while no message has arrived."""
        if self.receiver.closed or not (wait or self.receiver.poll()):
            return None
        try:
            return self.receiver.recv()
        except (EOFError, OSError):  # OSError: the child died within a message
            self.receiver.close()
            return None

    def join(self) -> bool:
        """Wait for the child, dropping what it still posts; True when it exited 0."""
        # receive before joining: a message larger than the pipe buffer
        # holds the child in send until it is read
        while self.recv() is not None:
            pass
        self.process.join()
        ok = self.process.exitcode == 0
        self.process.close()
        return ok


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_pieces(cuts: list, load, procs: int) -> list:
    """[load(cuts[k], cuts[k + 1]) for each piece k], on up to `procs` processes.

    A pipe holds one token per piece. This process, and one forked child per
    further process if there are several pieces, take tokens until the pipe
    runs dry, so no process idles while another has more than one piece
    left. A child posts each piece as soon as it is loaded, and this process
    receives what has arrived after each piece of its own, so no process
    holds a child's whole share in one message. A piece that no process sent
    back, because its child died, is loaded here; where no child can be
    forked, this process takes every token.
    """
    count = len(cuts) - 1
    loaded = {}
    queue_end, feed_end = os.pipe()
    with open(queue_end, "rb", buffering=0) as queue:
        # one write of at most PIPE_BUF bytes, into an empty pipe, never
        # blocks; closing the pipe for writing before any fork lets a read
        # of the empty pipe return b"" in every process
        with open(feed_end, "wb", buffering=0) as feed:
            feed.write(b"".join(k.to_bytes(_TOKEN_BYTES, "little") for k in range(count)))
        forked = [_start_forked(_post_pieces, queue, cuts, load) for _ in range(min(procs, count) - 1)]
        children = [child for child in forked if child is not None]
        try:
            for k in _tokens(queue):
                loaded[k] = load(cuts[k], cuts[k + 1])
                for child in children:
                    while (posted := child.recv(wait=False)) is not None:
                        loaded.update([posted])
        finally:
            for child in children:
                while (posted := child.recv()) is not None:
                    loaded.update([posted])
                child.join()
    return [loaded[k] if k in loaded else load(cuts[k], cuts[k + 1]) for k in range(count)]


def _tokens(queue):
    """The piece indices this process takes from the token pipe `queue` until it runs dry."""
    # the tokens went in with one write, and a read of a pipe that holds
    # data returns all it asks for, up to what the pipe holds: a whole token
    while token := queue.read(_TOKEN_BYTES):
        yield int.from_bytes(token, "little")


def _post_pieces(post, queue, cuts: list, load) -> None:
    """Body of a child of _share_pieces: post (k, piece k) for each token it takes."""
    for k in _tokens(queue):
        post((k, load(cuts[k], cuts[k + 1])))


class _Chunk(NamedTuple):
    """What one process made of a run of manoeuvres, such as a piece of a
    dataset file.

    `ids` and `labels` hold every manoeuvre read, in order, and `features`
    one row per id unless `error` or `failure` is set: an (n, width) matrix,
    or a list of rows that other arrays hold (`_joined`, `_rows`). `error` is the first
    load error, where the chunk ends, or the DatasetIoError of bytes that are
    not UTF-8; `failure` is the StageError of the first preprocess failure.
    """

    ids: list
    features: "np.ndarray | list"
    labels: list
    error: "ParseError | ValidationError | DatasetIoError | None" = None
    failure: "StageError | None" = None


def _features(manoeuvres, cfg: preprocess.PreprocessConfig, load: bool = False) -> _Chunk:
    """Preprocess each manoeuvre of an iterable.

    Errors are returned, not raised, because `_check` ranks them across
    chunks. After a preprocess failure the chunk goes on reading: a later
    load error or duplicate id outranks it. With `load`, the manoeuvres come
    from `iter_manoeuvres(..., validate=False)`: preprocess.preprocess
    validates each, once, and a ValidationError is a load error, where the
    chunk ends, as load_dataset would raise it.
    """
    ids, values, labels = [], [], []
    error = failure = None
    try:
        for m in manoeuvres:
            if failure is None:
                try:
                    values.append(preprocess.preprocess(m, cfg).values)
                except PmDiagError as exc:
                    if load and isinstance(exc, ValidationError):
                        raise
                    failure = _manoeuvre_failure("preprocess", m.id, exc)
            elif load and (invalid := validate_manoeuvre(m)) is not None:
                raise invalid
            ids.append(m.id)
            labels.append(m.label)
    except (ParseError, ValidationError) as exc:
        error = exc
    features = np.stack(values) if values else np.empty((0, cfg.feature_length))
    return _Chunk(ids, features, labels, error, failure)


class _Piece(NamedTuple):
    """A piece of a dataset file, finished where it was loaded (`_load_piece`):
    the ids and `error` of its _Chunk, the StageError of its preprocess or
    else scoring failure, and, where it has neither, the lines `finish` made
    of it for the output file and for stdout."""

    ids: list
    error: "ParseError | ValidationError | DatasetIoError | None"
    failure: "StageError | None"
    lines: str
    shown: str


def _load(path, cfg: preprocess.PreprocessConfig, finish) -> list:
    """The finished pieces (_Piece) of a dataset file, in line order.

    The file is cut at line ends into pieces (`_cuts`), which every CPU
    loads and finishes (`_load_piece`) from a shared queue (`_share_pieces`),
    so no process holds the whole file. A dataset that is not a regular
    file, such as a pipe, is read whole and cut into the same pieces in
    memory. Errors come out as from one process that loads, preprocesses
    and finishes the manoeuvres in order (see `_check`).
    """
    path = Path(path)
    try:
        file = open(path, "rb", buffering=0)
    except OSError as exc:
        raise DatasetIoError(f"cannot read {path}: {exc}") from exc
    with file:
        read, size = _reader(file, path)
        procs = _cpus()
        cuts = _cuts(read, size, procs)
        pieces = _share_pieces(cuts, lambda start, end: _load_piece(read, start, end, path, cfg, finish), procs)
    _check(pieces)
    return pieces


def _reader(file, path: Path):
    """(read, size) of an open dataset file: read(n, offset) returns the up
    to n bytes at offset. A file that is not regular, such as a pipe, cannot
    be read at an offset, so it is read here whole."""
    fd = file.fileno()
    try:
        status = os.fstat(fd)
        if stat.S_ISREG(status.st_mode):
            return (lambda n, offset: os.pread(fd, n, offset)), status.st_size
        data = file.readall()
    except OSError as exc:
        raise DatasetIoError(f"cannot read {path}: {exc}") from exc
    return (lambda n, offset: data[offset : offset + n]), len(data)


def _cuts(read, size: int, procs: int) -> list:
    """Offsets of the pieces of a file of `size` bytes: 0, each offset just
    past a line feed where a piece ends, and `size`.

    Fewer than FORK_MIN_LINES line feeds make one piece. Otherwise a piece
    is about as long as the first FORK_MIN_LINES lines, and no longer than
    1/procs of the file, so that every process gets one; a large file gets
    longer pieces, so that the tokens fit in one PIPE_BUF write. Only the
    head and a block at each cut are read.
    """
    cuts = [0]
    head = _past_line_feed(read, 0, FORK_MIN_LINES)
    if head is not None:
        step = max(min(head, size // procs), -(-size // _MAX_PIECES))
        while (cut := _past_line_feed(read, cuts[-1] + step - 1)) is not None and cut < size:
            cuts.append(cut)
    cuts.append(size)
    return cuts


def _past_line_feed(read, pos: int, count: int = 1) -> "int | None":
    """The offset just past the count-th line feed at or after `pos`, or
    None where the data ends before it."""
    while block := read(_SCAN_BYTES, pos):
        found = block.count(b"\n")
        if found >= count:
            end = -1
            for _ in range(count):
                end = block.find(b"\n", end + 1)
            return pos + end + 1
        count -= found
        pos += len(block)
    return None


def _load_piece(read, start: int, end: int, path: Path, cfg: preprocess.PreprocessConfig, finish) -> _Piece:
    """The _Piece of the dataset bytes from `start`, a line start, to `end`.
    finish(chunk) gives the (output file, stdout) lines of their _Chunk
    where it holds no error or failure, or raises the StageError of a
    scoring failure."""
    try:
        text = decode_text(read(end - start, start), path, start)
    except DatasetIoError as exc:
        return _Piece([], exc, None, "", "")

    def lines_before():
        blocks = range(0, start, _SCAN_BYTES)
        return sum(read(min(_SCAN_BYTES, start - pos), pos).count(b"\n") for pos in blocks)

    chunk = _features(iter_manoeuvres(text, lines_before, validate=False), cfg, load=True)
    lines = shown = ""
    failure = chunk.failure
    if chunk.error is None and failure is None:
        try:
            lines, shown = finish(chunk)
        except StageError as exc:
            failure = exc
    return _Piece(chunk.ids, chunk.error, failure, lines, shown)


def _check(pieces) -> None:
    """Raise the error that ranks first across pieces (each a _Chunk or a
    _Piece), as one process that reads them in order would: bytes that are
    not UTF-8 anywhere, as a whole-file read would, then the first load
    error, then the first repeated id, then the first preprocess failure,
    then the first scoring failure."""
    errors = [piece.error for piece in pieces if piece.error is not None]
    for error in errors:
        if isinstance(error, DatasetIoError):
            raise error
    if errors:
        raise errors[0]
    check_unique_ids(mid for piece in pieces for mid in piece.ids)
    failures = [piece.failure for piece in pieces if piece.failure is not None]
    if failures:
        # a piece with a preprocess failure is not scored, and the first
        # such failure outranks a scoring failure in an earlier piece
        raise min(failures, key=lambda failure: failure.stage != "preprocess")


def _joined(chunks) -> _Chunk:
    """The rows of the chunks, in order, as one _Chunk, where `_check`
    raises no error; its features are their rows, not a copy of them."""
    _check(chunks)
    return _Chunk(
        [mid for chunk in chunks for mid in chunk.ids],
        [row for chunk in chunks for row in chunk.features],
        [label for chunk in chunks for label in chunk.labels],
    )


def _rows(chunk: _Chunk, positions) -> _Chunk:
    """The _Chunk of the rows of a chunk at `positions`, in that order; its
    features are the chunk's rows, not a copy of them."""
    return _Chunk(*([part[p] for p in positions] for part in (chunk.ids, chunk.features, chunk.labels)))


def _pairs(chunk: _Chunk) -> list:
    """The (FeatureVector, label) pairs of a chunk's rows, as model.train and features_text take them."""
    return list(zip(map(preprocess.FeatureVector, chunk.features, chunk.ids), chunk.labels))


def _features_lines(chunk: _Chunk) -> "tuple[str, str]":
    """preprocess's finish (see _load_piece): the features.jsonl lines of a chunk."""
    return preprocess.features_text(_pairs(chunk)), ""


def cmd_preprocess(args, cfg: RunConfig, out: Path) -> int:
    dataset_path = cfg.paths.get("dataset", str(out / DATASET_FILE))
    pieces = _stage("load", _load, dataset_path, cfg.preprocess_cfg, _features_lines)
    atomic_write_text(out / FEATURES_FILE, *(piece.lines for piece in pieces))
    print(f"wrote {sum(len(piece.ids) for piece in pieces)} feature vectors to {out / FEATURES_FILE}")
    return 0


def _labelled(features_path, stage: str) -> _Chunk:
    """The _Chunk of the labelled records of a features file, in file order."""
    records = _stage("load", preprocess.load_features, features_path)
    labelled = [(fv.source_id, fv.values, label) for fv, label in records if label is not None]
    if not labelled:
        raise StageError(stage, PmDiagError("no labelled features"))
    return _Chunk(*map(list, zip(*labelled)))  # ids, rows, labels


def _train_config(cfg: RunConfig, train: _Chunk) -> "tuple[model.TrainConfig, tuple]":
    """train's config for the rows of a chunk: class weights from their
    label counts unless the config pinned them, and the layer dims."""
    train_cfg = cfg.train_cfg
    if train_cfg.class_weights == (1.0,) * len(FaultClass):
        weights = _stage("train", model.class_weights, collections.Counter(train.labels))
        train_cfg = replace(train_cfg, class_weights=model.weight_vector(weights))
    # the input width is the features' (model.train rejects an empty set first)
    width = len(train.features[0]) if train.ids else 0
    return train_cfg, (width, *model.DEFAULT_LAYER_DIMS[1:])


def _probabilities(mdl, chunk: _Chunk, stage: str) -> np.ndarray:
    """Class probabilities of a chunk's feature rows, in order, from one
    `model.forward_rows` call: each row is its own one-row product, so a
    row's bits do not depend on the rows beside it, nor on the process that
    scores them. A failure names the first failing manoeuvre."""
    try:
        return model.forward_rows(mdl, chunk.features)
    except model.RowError as exc:
        raise _manoeuvre_failure(stage, chunk.ids[exc.row], exc) from exc


def _diagnoses(predictor, chunk: _Chunk, probs) -> list:
    """(label, Diagnosis) per manoeuvre of a chunk and its row of `probs`."""
    return list(zip(chunk.labels, conformal.diagnoses(predictor, chunk.ids, probs)))


def _calibrate(cfg: RunConfig, mdl, labels, probs, out: Path) -> conformal.ConformalPredictor:
    """calibrate's step: the predictor calibrated on rows of true classes
    `labels` and of probabilities `probs` from `mdl`, written to predictor.json."""
    predictor = _stage("calibrate", conformal.calibrate_probs, zip(probs, labels), cfg.alpha, model.model_digest(mdl))
    conformal.save_predictor(predictor, out / PREDICTOR_FILE)
    return predictor


def _evaluate(cfg: RunConfig, classified, covered, out: Path, **extra) -> evaluation.MetricsReport:
    """evaluate's step over (label, Diagnosis) rows: classification metrics
    over `classified`, coverage over `covered`, then report.json, with the
    `extra` keys beside the config and metrics, and the diagnoses.jsonl of
    `covered`."""
    coverage, mean_size = evaluation.coverage_eval(covered)
    metrics = evaluation.build_metrics([(d.argmax_class, label) for label, d in classified], coverage, mean_size)
    report = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.to_obj(),
        **extra,
        "metrics": asdict(metrics),
    }
    evaluation.write_report(report, out / REPORT_FILE)
    conformal.save_diagnoses(covered, out / DIAGNOSES_JSONL)
    return metrics


def cmd_train(args, cfg: RunConfig, out: Path) -> int:
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    labelled = _labelled(features_path, "train")
    train_cfg, layer_dims = _train_config(cfg, labelled)
    result = _stage("train", model.train, _pairs(labelled), train_cfg, layer_dims)
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


def _diagnosed(mdl, predictor, chunk: _Chunk) -> "tuple[str, str]":
    """diagnose's finish (see _load_piece): the diagnoses.jsonl lines and
    the stdout lines of a chunk."""
    rows = _stage("diagnose", _diagnoses, predictor, chunk, _probabilities(mdl, chunk, "diagnose"))
    # 1 - alpha as written, not rounded up: 97.5, 99.5; ten digits drop the
    # float noise of 100 * (1 - alpha)
    guarantee = f"{100.0 * (1.0 - predictor.alpha):.10g}"
    shown = []
    for _, d in rows:
        members = ", ".join(f"{cls.name}:{prob:.3f}" for cls, prob in d.prediction_set)
        shown.append(f"{d.source_id}: {{{members}}} (set covers the true class at {guarantee}%)\n")
    return conformal.diagnoses_text(rows), "".join(shown)


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
    pieces = _stage(
        "load", _load, dataset_path, cfg.preprocess_cfg, lambda chunk: _diagnosed(mdl, predictor, chunk)
    )
    atomic_write_text(out / DIAGNOSES_JSONL, *(piece.lines for piece in pieces))
    sys.stdout.writelines(piece.shown for piece in pieces)
    return 0


def cmd_evaluate(args, cfg: RunConfig, out: Path) -> int:
    model_path = cfg.paths.get("model", str(out / MODEL_FILE))
    predictor_path = cfg.paths.get("predictor", str(out / PREDICTOR_FILE))
    features_path = cfg.paths.get("features", str(out / FEATURES_FILE))
    mdl = _stage("load", model.load_model, model_path)
    predictor = _stage("load", conformal.load_predictor, predictor_path)
    conformal.check_digest(predictor, mdl)
    labelled = _labelled(features_path, "evaluate")
    rows = _stage("evaluate", _diagnoses, predictor, labelled, _probabilities(mdl, labelled, "evaluate"))
    metrics = _evaluate(cfg, rows, rows, out)
    print(
        f"precision={metrics.precision:.4f} fpr={metrics.fpr:.4f} "
        f"fnr={metrics.fnr:.4f} coverage={metrics.coverage:.4f}"
    )
    return 0


def _save_inputs(ds: Dataset, data: _Chunk, out: Path) -> None:
    save_dataset(ds, out / DATASET_FILE)
    preprocess.save_features(_pairs(data), out / FEATURES_FILE)


def _position_cuts(n: int, procs: int) -> list:
    """Cuts of n dataset positions into pieces, as `_cuts` cuts a file of n lines."""
    if n < FORK_MIN_LINES:
        return [0, n]
    step = max(min(FORK_MIN_LINES, n // procs), -(-n // _MAX_PIECES))
    return [*range(0, n, step), n]


def _generated(plan: synth.DatasetPlan, start: int, end: int, cfg: preprocess.PreprocessConfig):
    """The manoeuvres at positions start to end of a planned dataset, and their _Chunk."""
    manoeuvres = [plan.manoeuvre(p) for p in range(start, end)]
    return manoeuvres, _features(manoeuvres, cfg)


def _pipeline_inputs(cfg: RunConfig) -> "tuple[Dataset, list]":
    """pipeline's dataset, loaded or generated, and the _Chunks of its
    features in dataset order, each piece of positions generated and
    preprocessed on every CPU (`_share_pieces`)."""
    procs = _cpus()
    pcfg = cfg.preprocess_cfg
    if "dataset" in cfg.paths:
        ds = _stage("load", load_dataset, cfg.paths["dataset"])
        cuts = _position_cuts(len(ds), procs)
        return ds, _share_pieces(cuts, lambda start, end: _features(ds.manoeuvres[start:end], pcfg), procs)
    plan = _stage("generate", synth.plan_dataset, cfg.counts, cfg.synth_cfg, cfg.severity_range)
    cuts = _position_cuts(len(plan), procs)
    pieces = _stage("generate", _share_pieces, cuts, lambda start, end: _generated(plan, start, end, pcfg), procs)
    ds = Dataset(tuple(m for manoeuvres, _ in pieces for m in manoeuvres), plan.provenance)
    return ds, [chunk for _, chunk in pieces]


class _Writer:
    """pipeline's writer: a forked child that writes dataset.jsonl and
    features.jsonl while this process trains, and then takes over the epoch
    loss log, as model.train's `loss_log`.

    Once the files are written, the child posts a ready message. From the
    next epoch end, `take` sends it each epoch's flat parameter vector down
    a pipe, and the child posts back the loss `model.logged_loss` gives it,
    the one train would log, bit for bit. A vector is kept here until its
    loss comes back, so `losses` can compute here the loss of any epoch the
    child did not answer, because it died. On one CPU no epoch is handed
    over: the child would only take turns with this process. `join` writes
    the files here where no child could be forked or it did not exit 0, so
    that a write failure is reported exactly as without the writer.
    """

    def __init__(self, ds: Dataset, data: _Chunk, out: Path, loss_log_args: tuple):
        self.inputs = (ds, data, out)
        self.unanswered: collections.deque = collections.deque()
        self.answered: list = []
        self.started = False
        params_in = self.params_out = None
        if _cpus() > 1:
            from multiprocessing.connection import Pipe

            params_in, self.params_out = Pipe(duplex=False)
            _widen(self.params_out)
        self.child = _start_forked(_write_inputs, ds, data, out, params_in, self.params_out, loss_log_args)
        if params_in is not None:
            params_in.close()
        if self.child is None:
            self._close()

    def take(self, params: np.ndarray) -> bool:
        """Hand the epoch that just ended to the child, once it is ready (see model.train)."""
        if not self.started:
            # the child's first message says that its files are written
            if self.params_out is None or self.child.recv(wait=False) is None:
                return False
            self.started = True
        self.unanswered.append(params.copy())
        try:
            self.params_out.send_bytes(params)
        except OSError:  # the child is gone: losses computes this epoch here
            pass
        self._collect(wait=False)
        return True

    def losses(self, loss_of) -> list:
        """The losses of the epochs handed over, in order (see model.train)."""
        self._close()  # the child stops once it has answered every vector
        self._collect(wait=True)
        return self.answered + [loss_of(params) for params in self.unanswered]

    def join(self) -> None:
        """Wait for the child; write the files here unless it did."""
        self._close()
        if self.child is None or not self.child.join():
            _save_inputs(*self.inputs)

    def _collect(self, wait: bool) -> None:
        while self.unanswered and (loss := self.child.recv(wait)) is not None:
            self.answered.append(loss)
            self.unanswered.popleft()

    def _close(self) -> None:
        if self.params_out is not None:
            self.params_out.close()
            self.params_out = None


def _write_inputs(post, ds: Dataset, data: _Chunk, out: Path, params_in, params_out, loss_log_args: tuple) -> None:
    """Body of pipeline's writer child (see _Writer)."""
    if params_out is not None:
        # this process's copy of the parent's end: the pipe must close when the parent's does
        params_out.close()
    _save_inputs(ds, data, out)
    if params_in is None:
        return
    loss_of = model.logged_loss(*loss_log_args)
    post("ready")
    with params_in:
        while True:
            try:
                params = np.frombuffer(params_in.recv_bytes())
            except EOFError:
                return
            post(loss_of(params))


def cmd_pipeline(args, cfg: RunConfig, out: Path) -> int:
    ds, chunks = _pipeline_inputs(cfg)
    try:
        data = _joined(chunks)
    except StageError:
        # a run that fails here still leaves the dataset it failed on
        save_dataset(ds, out / DATASET_FILE)
        raise
    position = {mid: p for p, mid in enumerate(data.ids)}
    try:
        train_ds, test_ds = _stage("split", evaluation.stratified_split, ds, cfg.split_spec)
        train = _rows(data, [position[m.id] for m in train_ds])
        train_cfg, layer_dims = _train_config(cfg, train)
    except StageError:
        # the input files are complete whenever a run ends after preprocessing
        _save_inputs(ds, data, out)
        raise

    # the input files are written on a second core while training runs, and
    # are complete once joined, also when training failed; model.json is
    # written only after that. A write failure reaches the join, and so
    # outranks a failure here, as it would if the files were written first.
    pairs = _pairs(train)
    writer = _Writer(ds, data, out, (pairs, train_cfg, layer_dims))
    try:
        result = _stage("train", model.train, pairs, train_cfg, layer_dims, loss_log=writer)
    finally:
        writer.join()
    model.save_model(result.model, out / MODEL_FILE, train_cfg, provenance=ds.provenance)

    cal_ds, hold_ds = _stage("calibrate", evaluation.split_calibration, test_ds, cfg.split_spec)
    # each test manoeuvre goes through the model once, the calibration half
    # first: calibration reads its probabilities, the classification metrics
    # the whole test split's diagnoses, coverage and diagnoses.jsonl the holdout's
    test = _rows(data, [position[m.id] for m in (*cal_ds, *hold_ds)])
    probs = _probabilities(result.model, test, "calibrate")
    predictor = _calibrate(cfg, result.model, test.labels[: len(cal_ds)], probs[: len(cal_ds)], out)
    test_rows = _stage("diagnose", _diagnoses, predictor, test, probs)
    metrics = _evaluate(
        cfg,
        test_rows,
        test_rows[len(cal_ds) :],
        out,
        provenance={"dataset": ds.provenance, "model_digest": predictor.model_digest},
        counts={
            name: _counts_obj(part.class_counts())
            for name, part in [("dataset", ds), ("train", train_ds), ("test", test_ds),
                               ("calibration", cal_ds), ("holdout", hold_ds)]
        },
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
