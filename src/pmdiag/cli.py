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
from typing import Callable, NamedTuple

import numpy as np

from . import conformal, evaluation, model, preprocess, synth
from .core import (
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
    json_is,
    json_type_error,
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

# A dataset file with fewer lines is one piece, loaded in this process alone.
# One fork, its pipe and the reap cost about 4.5 ms, against about 0.6 ms to
# load and preprocess one 760-sample manoeuvre, and a one-manoeuvre diagnose
# must never fork. A larger file is cut into pieces of about this many lines,
# so that the last piece to finish keeps the other CPUs waiting for about
# 40 ms at most (see _cuts). pipeline cuts the positions of a generated
# dataset the same way; generating and preprocessing a manoeuvre takes about
# 0.2 ms.
FORK_MIN_LINES = 64
# a piece's index in the token pipe of _share_pieces
_TOKEN_BYTES = 2
# every token goes into the pipe in one write that never blocks
_MAX_PIECES = select.PIPE_BUF // _TOKEN_BYTES
# A forked child posts a piece of a dataset (about 460 KB for 64 loaded
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


DEFAULT_COUNTS = {
    FaultClass.Nominal: 356,
    FaultClass.Obstacle: 274,
    FaultClass.Friction: 355,
    FaultClass.PowerSupply: 125,
}


def _counts_obj(counts: "dict[FaultClass, int]") -> dict:
    """Class name to count, in class-code order."""
    return {cls.name: n for cls, n in sorted(counts.items(), key=lambda kv: int(kv[0]))}


def _counts_at(labels, **parts) -> dict:
    """Each part's _counts_obj of the `labels` at its positions."""
    return {name: _counts_obj(collections.Counter(labels[p] for p in at)) for name, at in parts.items()}


@dataclass
class RunConfig:
    synth_cfg: synth.SynthConfig
    counts: "dict[FaultClass, int]"
    severity_range: tuple[float, float]
    preprocess_cfg: preprocess.PreprocessConfig
    train_cfg: model.TrainConfig
    conformal_cfg: conformal.ConformalConfig
    split_spec: evaluation.SplitSpec
    paths: "dict[str, str]"
    # the train section gave class_weights, which train then takes as they are
    class_weights_given: bool

    def to_obj(self) -> dict:
        return {
            "synth": {
                **asdict(self.synth_cfg),
                "counts": _counts_obj(self.counts),
                "severity_range": list(self.severity_range),
            },
            "preprocess": asdict(self.preprocess_cfg),
            "train": asdict(self.train_cfg),
            "conformal": asdict(self.conformal_cfg),
            "split": asdict(self.split_spec),
            "paths": dict(self.paths),
        }


def _check_section(section: str, obj, allowed) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")


def _build_section(section: str, obj, factory, **defaults):
    """factory(**obj) over `defaults`; keys are the factory's fields, each value of its annotation's JSON type."""
    kinds = {f.name: f.type for f in fields(factory)}
    _check_section(section, obj, kinds)
    if (error := json_type_error(obj, kinds)) is not None:
        raise ConfigError(f"section {section!r}: {error}")
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
    _check_section("synth.counts", obj, FaultClass.__members__)
    if (error := json_type_error(obj, dict.fromkeys(obj, "int"))) is not None:
        raise ConfigError(f"section 'synth.counts': {error}")
    if negative := [name for name, n in obj.items() if n < 0]:
        raise ConfigError(f"section 'synth.counts': {negative[0]} must be nonnegative, not {obj[negative[0]]}")
    return {FaultClass.from_name(name): n for name, n in obj.items()}


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
    _check_section("synth", synth_obj, [f.name for f in fields(synth.SynthConfig)] + ["counts", "severity_range"])
    profile = _parse_profile(synth_obj.get("profile", "MJ"))
    counts = _parse_counts(synth_obj.get("counts", {c.name: n for c, n in DEFAULT_COUNTS.items()}))
    severity_range = synth_obj.get("severity_range", [0.3, 1.0])
    if not json_is(severity_range, "tuple[float, ...]") or len(severity_range) != 2:
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
    conformal_cfg = _build_section("conformal", obj.get("conformal", {}), conformal.ConformalConfig)

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
        conformal_cfg=conformal_cfg,
        split_spec=split_spec,
        paths=dict(paths),
        class_weights_given="class_weights" in obj.get("train", {}),
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
    except (ValueError, RecursionError) as exc:
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
    plan = _stage("generate", synth.plan_dataset, cfg.counts, cfg.synth_cfg, cfg.severity_range)
    # each trace is written as it is generated, as pipeline's writer does
    _stage("generate", save_dataset, plan.manoeuvres(), out / DATASET_FILE)
    for cls in sorted(cfg.counts, key=int):
        print(f"{cls.name}: {cfg.counts[cls]}")
    print(f"wrote {len(plan)} manoeuvres to {out / DATASET_FILE}")
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
    """Body of a forked child; an error stays in it: fn posts none, and one fn raises ends it."""
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
        self.pid = process.pid
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
    """[load(cuts[k], cuts[k + 1]) for each piece k], on up to `procs`
    processes. Where there are several pieces and one holds an error or a
    failure, or a child posted it as None, [load(cuts[0], cuts[-1])]: the
    whole input loaded again as one piece here, whose error is by
    construction the first one process meets. A process that meets a failed
    piece drains the pipe, so no process takes another piece, and the
    pieces nobody sent back are not loaded.

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
                came = [(k, load(cuts[k], cuts[k + 1]))]
                for child in children:
                    while (posted := child.recv(wait=False)) is not None:
                        came.append(posted)
                loaded.update(came)
                if any(_failed(piece) for _, piece in came):
                    queue.read()  # every token left: no process takes another piece
        finally:
            for child in children:
                while (posted := child.recv()) is not None:
                    loaded.update([posted])
                child.join()
    if not any(map(_failed, loaded.values())):  # else the pieces nobody sent back are not needed
        loaded.update((k, load(cuts[k], cuts[k + 1])) for k in range(count) if k not in loaded)
    if count == 1 or not any(map(_failed, loaded.values())):
        return [loaded.pop(k) for k in range(count)]
    loaded.clear()  # freed before the rerun holds the whole input
    return [load(cuts[0], cuts[-1])]


def _failed(piece) -> bool:
    """Whether a piece of _share_pieces failed: it holds an error or a
    failure, or a child posted it as None."""
    return piece is None or piece.error is not None or piece.failure is not None


def _tokens(queue):
    """The piece indices this process takes from the token pipe `queue` until it runs dry."""
    # the tokens went in with one write, and a read of a pipe that holds
    # data returns all it asks for, up to what the pipe holds: a whole token
    while token := queue.read(_TOKEN_BYTES):
        yield int.from_bytes(token, "little")


def _post_pieces(post, queue, cuts: list, load) -> None:
    """Body of a child of _share_pieces: post (k, piece k) for each token it
    takes. At the first piece that failed, drain the pipe, post (k, None)
    and return: its error stays in this process."""
    for k in _tokens(queue):
        piece = load(cuts[k], cuts[k + 1])
        if _failed(piece):
            queue.read()
            post((k, None))
            return
        post((k, piece))


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
    chunk that holds either (`_post_pieces`). A piece that diagnose or preprocess finished
    (`_load_piece`) keeps only its ids and the lists of lines made of it
    for the output file, `lines`, and for stdout, `shown`, and no features.
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

    Errors are returned, not raised: `_share_pieces` looks for them in every
    chunk, and `_check` raises them. A ParseError or ValidationError that
    the iterable raises is a load error, where the chunk ends. A preprocess
    failure does not end the chunk: a later load error or duplicate id
    outranks it.
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


def _load(path, cfg: preprocess.PreprocessConfig, finish) -> list:
    """The finished pieces (_Chunk) of a dataset file, in line order.

    The file is cut at line ends into pieces (`_cuts`), which every CPU
    loads and finishes (`_load_piece`) from a shared queue (`_share_pieces`),
    so no process holds the whole file. A dataset that is not a regular
    file, such as a pipe, is read whole and cut into the same pieces in
    memory. A file whose pieces hold an error is loaded again as one piece
    (`_share_pieces`), whose error `_check` raises: the one that one process
    meets, loading, preprocessing and finishing the manoeuvres in order.
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
        return _share_pieces(cuts, lambda start, end: _load_piece(read, start, end, path, cfg, finish), procs)


def _reader(file, path: Path):
    """(read, size) of an open dataset file: read(n, offset) returns the n
    bytes at offset, or those up to the end. A file that is not regular,
    such as a pipe, cannot be read at an offset, so it is read here whole."""
    fd = file.fileno()

    def pread(n, offset):
        data = os.pread(fd, n, offset)  # on Linux, at most 0x7ffff000 bytes
        while len(data) < n and (more := os.pread(fd, n - len(data), offset + len(data))):
            data += more
        return data

    try:
        status = os.fstat(fd)
        if stat.S_ISREG(status.st_mode):
            return pread, status.st_size
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


def _load_piece(read, start: int, end: int, path: Path, cfg: preprocess.PreprocessConfig, finish) -> _Chunk:
    """The _Chunk of the dataset bytes from `start`, a line start, to `end`,
    as finish(chunk) returns it where it holds no error or failure. finish
    may raise the StageError of a scoring failure. An error numbers lines
    and bytes from `start`; _share_pieces loads a failed file again whole."""
    try:
        text = decode_text(read(end - start, start), path)
    except DatasetIoError as exc:
        return _Chunk([], np.empty((0, 0)), [], error=exc)
    chunk = _features(iter_manoeuvres(text), cfg)
    if chunk.error is not None or chunk.failure is not None:
        return chunk
    try:
        return finish(chunk)
    except StageError as exc:
        return chunk._replace(failure=exc)


def _check(pieces) -> None:
    """Raise the errors of pieces (_Chunk) in the order one process meets
    them: the load error, then the first repeated id, then the failure. Only
    a lone piece holds an error or a failure (see _share_pieces)."""
    for piece in pieces:
        if piece.error is not None:
            raise piece.error
    check_unique_ids(mid for piece in pieces for mid in piece.ids)
    for piece in pieces:
        if piece.failure is not None:
            raise piece.failure


def _joined(chunks) -> _Chunk:
    """The rows of the chunks, in order, as one _Chunk of no manoeuvres,
    where `_check`, in stage load, raises no error."""
    _stage("load", _check, chunks)
    return _Chunk(
        [mid for chunk in chunks for mid in chunk.ids],
        np.concatenate([chunk.features for chunk in chunks]),
        [label for chunk in chunks for label in chunk.labels],
    )


def _rows(chunk: _Chunk, positions: list) -> _Chunk:
    """The _Chunk of the rows of a chunk at `positions`, in that order."""
    return _Chunk([chunk.ids[p] for p in positions], chunk.features[positions], [chunk.labels[p] for p in positions])


def _features_lines(chunk: _Chunk) -> _Chunk:
    """preprocess's finish (see _load_piece): the ids and features.jsonl lines of a chunk."""
    lines = list(preprocess.features_lines(chunk.ids, chunk.features, chunk.labels))
    return _Chunk(chunk.ids, np.empty((0, 0)), [], lines=lines)


def cmd_preprocess(args, cfg: RunConfig, out: Path) -> int:
    dataset_path = cfg.paths.get("dataset", str(out / DATASET_FILE))
    pieces = _load(dataset_path, cfg.preprocess_cfg, _features_lines)
    _stage("load", _check, pieces)
    atomic_write_text(out / FEATURES_FILE, *(piece.lines for piece in pieces))
    print(f"wrote {sum(len(piece.ids) for piece in pieces)} feature vectors to {out / FEATURES_FILE}")
    return 0


def _labelled(features_path, stage: str) -> _Chunk:
    """The _Chunk of the labelled records of a features file, in file order."""
    records = _stage("load", preprocess.load_features, features_path)
    labelled = [(fv, label) for fv, label in records if label is not None]
    if not labelled:
        raise StageError(stage, PmDiagError("no labelled features"))
    return _Chunk([fv.source_id for fv, _ in labelled], np.stack([fv.values for fv, _ in labelled]),
                  [label for _, label in labelled])


def _train_config(cfg: RunConfig, train: _Chunk) -> model.TrainConfig:
    """train's config for the rows of a chunk: class weights from their
    label counts unless the config pinned them."""
    if cfg.class_weights_given:
        return cfg.train_cfg
    weights = _stage("train", model.class_weights, collections.Counter(train.labels))
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
    train_cfg = _train_config(cfg, labelled)
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
    pieces = _load(dataset_path, cfg.preprocess_cfg, lambda chunk: _diagnosed(mdl, predictor, chunk))
    _stage("load", _check, pieces)
    atomic_write_text(out / DIAGNOSES_JSONL, *(piece.lines for piece in pieces))
    sys.stdout.writelines(line for piece in pieces for line in piece.shown)
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


def _save_inputs(manoeuvres, data: _Chunk, out: Path) -> None:
    """pipeline's input files, each written line by line: dataset.jsonl of
    the manoeuvres of an iterable, and features.jsonl of the rows of data."""
    save_dataset(manoeuvres, out / DATASET_FILE)
    atomic_write_text(out / FEATURES_FILE, preprocess.features_lines(data.ids, data.features, data.labels))


def _position_cuts(n: int, procs: int) -> list:
    """Cuts of n dataset positions into pieces: the `_cuts` of a file of n empty lines."""
    lines = b"\n" * n
    return _cuts(lambda k, offset: lines[offset : offset + k], n, procs)


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
    procs = _cpus()
    cuts = _position_cuts(len(plan), procs)

    def generated(start, end):
        # a generated manoeuvre that fails validation fails preprocessing,
        # unless one before it did; no later position is generated
        chunk = _features(valid_manoeuvres(map(plan.manoeuvre, range(start, end))), pcfg)
        failure = chunk.failure or (chunk.error and StageError("preprocess", chunk.error))
        return chunk._replace(manoeuvres=(), error=None, failure=failure)

    chunks = _stage("generate", _share_pieces, cuts, generated, procs)
    return plan.provenance, chunks, plan.manoeuvres


def cmd_pipeline(args, cfg: RunConfig, out: Path) -> int:
    provenance, chunks, traces = _pipeline_inputs(cfg)
    try:
        data = _joined(chunks)
    except StageError as exc:
        if exc.stage == "preprocess":
            # a run that fails in preprocessing still leaves the dataset it failed on
            save_dataset(traces(), out / DATASET_FILE)
        raise
    del chunks  # data holds a copy of their features
    # a forked writer writes the input files while the split and training
    # run; they are complete once it is joined, also when either failed, and
    # model.json is written only after that. Where the writer could not be
    # forked or did not exit 0, the files are written here, so a write
    # failure is reported as without the writer, and outranks a failure in
    # the split or training.
    writer = _start_forked(lambda _post: _save_inputs(traces(), data, out))
    try:
        train_at, test_at = _stage("split", evaluation.stratified_split, data.ids, data.labels, cfg.split_spec)
        train = _rows(data, train_at)
        train_cfg = _train_config(cfg, train)
        result = _stage("train", model.train, train.features, train.labels, train_cfg)
    finally:
        if writer is None or not writer.join():
            if writer is not None:  # a writer that died within a write leaves its temp file
                for name in (DATASET_FILE, FEATURES_FILE):
                    remove_temp_files(out / name, writer.pid)
            _save_inputs(traces(), data, out)
    model.save_model(result.model, out / MODEL_FILE, train_cfg, provenance=provenance)

    cal_in, hold_in = _stage("calibrate", evaluation.split_calibration, [data.ids[p] for p in test_at],
                             [data.labels[p] for p in test_at], cfg.split_spec)
    cal_at, hold_at = [test_at[k] for k in cal_in], [test_at[k] for k in hold_in]
    # each test manoeuvre goes through the model once, the calibration half
    # first: calibration reads its probabilities, the classification metrics
    # the whole test split's diagnoses, coverage and diagnoses.jsonl the holdout's
    test = _rows(data, cal_at + hold_at)
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
        counts=_counts_at(data.labels, dataset=range(len(data.ids)), train=train_at, test=test_at,
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
