"""Domain types, validation, and dataset file I/O shared by every pipeline stage.

The dataset interchange format is JSONL: one manoeuvre object per line with
keys ``id``, ``technology``, ``timestamp``, ``sample_rate``, ``samples`` and an
optional ``label``. Floats are written with Python's shortest round-trip repr,
so save -> load is an exact identity on every field.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np

MIN_SAMPLES = 32

DATASET_KEYS = {"id", "technology", "timestamp", "sample_rate", "samples", "label"}
REQUIRED_DATASET_KEYS = DATASET_KEYS - {"label"}


class PmDiagError(Exception):
    """Base class for every toolkit error.

    A subclass whose constructor takes other arguments than the message
    defines ``__reduce__`` to rebuild itself from them: the default pickles
    only the message, which such a constructor cannot take back, and an error
    raised in a worker process reaches its parent through pickle.
    """


class DatasetIoError(PmDiagError):
    """A dataset file could not be read or written."""


class ParseError(PmDiagError):
    """A dataset line is not a valid manoeuvre object."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.line_number, self.reason), self.__dict__


class ValidationError(PmDiagError):
    """A manoeuvre violated an invariant; carries the first broken rule."""

    def __init__(self, manoeuvre_id: str, rule: str, detail: str = ""):
        msg = f"manoeuvre {manoeuvre_id!r}: {rule}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.manoeuvre_id = manoeuvre_id
        self.rule = rule
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.manoeuvre_id, self.rule, self.detail), self.__dict__


class DuplicateIdError(PmDiagError):
    """Two manoeuvres in one dataset share an id."""

    def __init__(self, manoeuvre_id: str):
        super().__init__(f"duplicate manoeuvre id {manoeuvre_id!r}")
        self.manoeuvre_id = manoeuvre_id

    def __reduce__(self):
        return type(self), (self.manoeuvre_id,), self.__dict__


class FaultClass(IntEnum):
    """Diagnostic label taxonomy with stable integer codes.

    Member names are the canonical serialized names.
    """

    Nominal = 0
    Obstacle = 1
    Friction = 2
    PowerSupply = 3
    Misalignment = 4

    @classmethod
    def from_name(cls, name: str) -> "FaultClass":
        try:
            return cls[name]
        except KeyError:
            raise ValueError(f"unknown fault class {name!r}") from None


class SupplyKind(str, Enum):
    AC = "AC"
    DC = "DC"


@dataclass(frozen=True)
class TechnologyProfile:
    """Electrical/mechanical envelope of one point-machine technology."""

    name: str
    supply: SupplyKind
    sample_rate: float
    nominal_peak_amps: float
    plateau_amps: float
    move_duration: float

    def __post_init__(self):
        object.__setattr__(self, "supply", SupplyKind(self.supply))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not self.nominal_peak_amps > self.plateau_amps > 0:
            raise ValueError("need nominal_peak_amps > plateau_amps > 0")
        if self.move_duration <= 0:
            raise ValueError("move_duration must be positive")


@dataclass(frozen=True, eq=False)
class Manoeuvre:
    """One raw current trace for a single blade movement.

    Invariants (length >= 32, finite samples, positive sample rate) are not
    enforced at construction; `validate_manoeuvre` screens them so that
    malformed field data can still be represented and reported.
    """

    id: str
    technology: str
    timestamp: float
    samples: np.ndarray
    sample_rate: float
    label: FaultClass | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Manoeuvre):
            return NotImplemented
        return (
            self.id == other.id
            and self.technology == other.technology
            and self.timestamp == other.timestamp
            and self.sample_rate == other.sample_rate
            and self.label == other.label
            and np.array_equal(self.samples, other.samples)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # through the constructor, so that the samples come back read-only
        return type(self), (self.id, self.technology, self.timestamp, self.samples, self.sample_rate, self.label)


def check_unique_ids(ids) -> None:
    """Raise DuplicateIdError naming the first id that repeats an earlier one."""
    seen: set[str] = set()
    for mid in ids:
        if mid in seen:
            raise DuplicateIdError(mid)
        seen.add(mid)


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of manoeuvres with a provenance tag."""

    manoeuvres: tuple[Manoeuvre, ...]
    provenance: str

    def __post_init__(self):
        object.__setattr__(self, "manoeuvres", tuple(self.manoeuvres))
        check_unique_ids(m.id for m in self.manoeuvres)

    def __len__(self) -> int:
        return len(self.manoeuvres)

    def __iter__(self):
        return iter(self.manoeuvres)

    def class_counts(self) -> dict[FaultClass, int]:
        """Labelled manoeuvre count per class (unlabelled entries ignored)."""
        return dict(collections.Counter(m.label for m in self.manoeuvres if m.label is not None))


def validate_manoeuvre(m: Manoeuvre) -> ValidationError | None:
    """Return None when all invariants hold, else the unraised
    ValidationError of the first violated rule.

    Never raises: rules are checked in a fixed order (TooShort,
    NonFiniteSample, BadSampleRate).
    """
    if len(m.samples) < MIN_SAMPLES:
        return ValidationError(m.id, "TooShort", f"length {len(m.samples)} < {MIN_SAMPLES}")
    finite = np.isfinite(m.samples)
    if not finite.all():
        idx = int(np.flatnonzero(~finite)[0])
        return ValidationError(m.id, "NonFiniteSample", str(idx))
    if not (math.isfinite(m.sample_rate) and m.sample_rate > 0):
        return ValidationError(m.id, "BadSampleRate", repr(m.sample_rate))
    return None


def _manoeuvre_to_obj(m: Manoeuvre) -> dict:
    obj = {
        "id": m.id,
        "technology": m.technology,
        "timestamp": m.timestamp,
        "sample_rate": m.sample_rate,
        "samples": m.samples.tolist(),
    }
    if m.label is not None:
        obj["label"] = m.label.name
    return obj


def _manoeuvre_from_obj(obj: dict, line_number: int, may_hold_bool: bool) -> Manoeuvre:
    """The Manoeuvre of a parsed dataset line. Unless `may_hold_bool` is
    False, its samples are checked for a JSON true or false, which
    struct.pack would take as 1 and 0."""
    if not isinstance(obj, dict):
        raise ParseError(line_number, "not a JSON object")
    keys = set(obj)
    missing = REQUIRED_DATASET_KEYS - keys
    if missing:
        raise ParseError(line_number, f"missing keys {sorted(missing)}")
    unknown = keys - DATASET_KEYS
    if unknown:
        raise ParseError(line_number, f"unknown keys {sorted(unknown)}")
    label = None
    if "label" in obj:
        try:
            label = FaultClass.from_name(obj["label"])
        except (ValueError, TypeError):
            raise ParseError(line_number, f"bad label {obj['label']!r}") from None
    samples = obj["samples"]
    if not isinstance(samples, list):
        raise ParseError(line_number, "samples is not a flat array")
    try:
        # one C call packs every number, about 7 us for 760 samples against
        # 20 us for array("d"); unlike np.asarray, it takes no numeric string
        samples = np.frombuffer(struct.pack(f"{len(samples)}d", *samples))
    except struct.error:  # also an integer beyond float range
        shape = "flat" if any(isinstance(v, list) for v in samples) else "numeric"
        raise ParseError(line_number, f"samples is not a {shape} array") from None
    if may_hold_bool and any(type(v) is bool for v in obj["samples"]):
        raise ParseError(line_number, "samples is not a numeric array")
    if not isinstance(obj["id"], str) or not isinstance(obj["technology"], str):
        raise ParseError(line_number, "id and technology must be strings")
    if not isinstance(obj["timestamp"], (int, float)) or isinstance(obj["timestamp"], bool):
        raise ParseError(line_number, "timestamp must be a number")
    if not isinstance(obj["sample_rate"], (int, float)) or isinstance(obj["sample_rate"], bool):
        raise ParseError(line_number, "sample_rate must be a number")
    try:
        return Manoeuvre(
            id=obj["id"],
            technology=obj["technology"],
            timestamp=float(obj["timestamp"]),
            samples=samples,
            sample_rate=float(obj["sample_rate"]),
            label=label,
        )
    except OverflowError:  # an integer beyond float range
        key = "timestamp" if abs(obj["timestamp"]) > sys.float_info.max else "sample_rate"
        raise ParseError(line_number, f"{key} is beyond float range") from None


def read_jsonl_text(path: str | Path) -> str:
    """The whole text of a JSON or JSONL file; DatasetIoError when it cannot be read."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetIoError(f"cannot read {path}: {exc}") from exc
    return decode_text(data, path)


def decode_text(data: bytes, path: str | Path, offset: int = 0) -> str:
    """`data`, the bytes of file `path` from `offset` on, as UTF-8 text.

    No newline is translated: a lone CR stays a CR, which JSON reads as
    whitespace. Bytes that are not UTF-8 raise DatasetIoError with the
    message a decode of the whole file gives, which names the first bad byte
    by its offset in the file.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        if offset:
            # the bytes before `offset` only pad the offsets: the message
            # names the bad bytes, which lie in `data`
            exc = UnicodeDecodeError(
                exc.encoding, bytes(offset) + data, offset + exc.start, offset + exc.end, exc.reason
            )
        raise DatasetIoError(f"cannot read {Path(path)}: {exc}") from exc


def read_json(path: str | Path):
    """The JSON value a file holds; DatasetIoError when it cannot be read or parsed."""
    try:
        return json.loads(read_jsonl_text(path))
    except ValueError as exc:
        raise DatasetIoError(f"{Path(path)} is not valid JSON: {json_error(exc)}") from None


def json_error(exc: ValueError) -> str:
    """Why json.loads failed, in one line. Besides a JSONDecodeError it
    raises a plain ValueError for an integer of more digits than Python
    converts (4300 by default)."""
    return exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)


def jsonl_objects(text: str):
    """Yield (line number, line, parsed JSON value) for each non-blank line
    of text; ParseError at the first line that is not valid JSON.

    Lines end at LF only, not at the other line breaks of str.splitlines():
    U+2028, U+2029 and U+0085 may stand raw inside a JSON string, and a CR
    is JSON whitespace. Line numbers count from 1 at the start of `text`.
    """
    start = line_number = 0
    while start < len(text):
        stop = text.find("\n", start)
        stop = len(text) if stop < 0 else stop
        line_number += 1
        line = text[start:stop]
        if line.strip():
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ParseError(line_number, f"invalid JSON: {json_error(exc)}") from None
            yield line_number, line, obj
        start = stop + 1


def _may_hold_bool(line: str) -> bool:
    """False where a line holds no JSON true or false in an array: no "u"
    or "f", which no number holds, lies between its first "[" and its last
    "]". One-character searches cost about 0.2 us on a 15 KB line, a search
    for "false" 12 us; ids and labels such as "field-1" and "PowerSupply"
    stand outside the samples in the order save_dataset writes."""
    first, last = line.find("["), line.rfind("]")
    return line.find("u", first, last) >= 0 or line.find("f", first, last) >= 0


def iter_manoeuvres(text: str, lines_before=None, validate: bool = True):
    """Parse each manoeuvre line of text in order, and validate it unless
    `validate` is False: the caller then validates each manoeuvre itself,
    as preprocess.preprocess does.

    Raises ParseError or ValidationError at the first bad line, after
    yielding every manoeuvre before it. `text` may be a piece of a file that
    starts at a line start: `lines_before()` then returns the number of
    lines before it. It is called only to number a ParseError in the whole
    file, so no other line is counted.
    """
    try:
        for line_number, line, obj in jsonl_objects(text):
            m = _manoeuvre_from_obj(obj, line_number, _may_hold_bool(line))
            if validate and (error := validate_manoeuvre(m)) is not None:
                raise error
            yield m
    except ParseError as exc:
        if lines_before is None:
            raise
        raise ParseError(lines_before() + exc.line_number, exc.reason) from None


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a JSONL dataset, preserving line order."""
    manoeuvres = tuple(iter_manoeuvres(read_jsonl_text(path)))
    # Dataset rejects a repeated id with DuplicateIdError
    return Dataset(manoeuvres=manoeuvres, provenance=str(Path(path)))


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a dataset as JSONL (atomic: temp file + rename)."""
    atomic_write_text(path, jsonl_text(_manoeuvre_to_obj(m) for m in ds.manoeuvres))


def jsonl_text(objs) -> str:
    """Each object as one JSON line, each line ending in LF. The texts of
    consecutive runs of objects, joined, are the text of all of them."""
    lines = [json.dumps(obj) for obj in objs]
    text = "\n".join(lines)
    if lines:
        text += "\n"
    return text


def atomic_write_text(path: str | Path, *parts: str) -> None:
    """Write the texts `parts`, one after another, to path via a
    same-directory temp file and rename, so that pieces of a file need not
    be joined first.

    The file gets the mode a plain open(path, "w") gives it, 0o666 less the
    umask, where tempfile.mkstemp would give 0o600.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    try:
        # O_EXCL: the temp file is new, never one that was already there
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DatasetIoError(f"cannot write {path}: {exc}") from exc


def sha256_of_obj(obj) -> str:
    """Stable digest of a JSON-serializable object."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
