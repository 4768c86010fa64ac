"""Domain types, validation, and dataset file I/O shared by every pipeline stage.

The dataset interchange format is JSONL: one manoeuvre object per line with
keys ``id``, ``technology``, ``timestamp``, ``sample_rate``, ``samples`` and an
optional ``label``. Floats are written with Python's shortest round-trip repr,
so save -> load is an exact identity on every field.
"""

from __future__ import annotations

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
    """Base class for every toolkit error."""


class DatasetIoError(PmDiagError):
    """A dataset file could not be read or written."""


class ParseError(PmDiagError):
    """A dataset line is not a valid manoeuvre object."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


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


class DuplicateIdError(PmDiagError):
    """Two manoeuvres in one dataset share an id."""

    def __init__(self, manoeuvre_id: str):
        super().__init__(f"duplicate manoeuvre id {manoeuvre_id!r}")
        self.manoeuvre_id = manoeuvre_id


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

    Invariants (length >= 32, finite samples and timestamp, positive sample
    rate) are not enforced at construction; `validate_manoeuvre` screens
    them so that malformed field data can still be represented and reported.
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


def validate_manoeuvre(m: Manoeuvre) -> ValidationError | None:
    """Return None when all invariants hold, else the unraised
    ValidationError of the first violated rule.

    Never raises: rules are checked in a fixed order (TooShort,
    NonFiniteSample, BadSampleRate, BadTimestamp).
    """
    if len(m.samples) < MIN_SAMPLES:
        return ValidationError(m.id, "TooShort", f"length {len(m.samples)} < {MIN_SAMPLES}")
    finite = np.isfinite(m.samples)
    if not finite.all():
        idx = int(np.flatnonzero(~finite)[0])
        return ValidationError(m.id, "NonFiniteSample", str(idx))
    if not (math.isfinite(m.sample_rate) and m.sample_rate > 0):
        return ValidationError(m.id, "BadSampleRate", repr(m.sample_rate))
    if not math.isfinite(m.timestamp):
        return ValidationError(m.id, "BadTimestamp", repr(m.timestamp))
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
    if (error := json_type_error(obj, {"id": "str", "technology": "str", "timestamp": "float",
                                       "sample_rate": "float"})) is not None:
        raise ParseError(line_number, error)
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


# each JSON kind, by dataclass annotation or name: the Python types of its values
# and its name. An array kind gives the exact types of its items as a set; an
# "array" may hold arrays of its kind, whose shape its reader checks
JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"), "str": (str, "a string"),
              "SupplyKind": (str, "a string"), "tuple[float, ...]": ({int, float}, "a numeric array"),
              "list[int]": ({int}, "an integer array"), "array": ({int, float, list}, "a numeric array")}


def json_is(value, kind: str) -> bool:
    """Whether a value is of JSON kind `kind`: a bool is no number, and an
    array is tested by its items' types, one nesting level at a time, with no recursion."""
    types = JSON_TYPES[kind][0]
    if not isinstance(types, set):
        return isinstance(value, types) and not isinstance(value, bool)
    if not isinstance(value, (list, tuple)):
        return False
    level = [value]
    while level and set().union(*(map(type, items) for items in level)) <= types:
        level = [v for items in level for v in items if type(v) is list]
    return not level


def json_type_error(obj, kinds: dict) -> "str | None":
    """The message of the first field of a parsed JSON object, in the order
    of `kinds`, a map from field name to JSON kind, whose value is not of its
    kind; None when there is none. An absent field passes."""
    if not isinstance(obj, dict):
        return "not a JSON object"
    for key, kind in kinds.items():
        if key in obj and not json_is(obj[key], kind):
            types, name = JSON_TYPES[kind]
            if isinstance(types, set):
                return f"{key} is not {name}"
            return f"{key} must be {name}, not {json.dumps(obj[key])}"
    return None


def read_jsonl_text(path: str | Path) -> str:
    """The whole text of a JSON or JSONL file; DatasetIoError when it cannot be read."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetIoError(f"cannot read {path}: {exc}") from exc
    return decode_text(data, path)


def decode_text(data: bytes, path: str | Path) -> str:
    """`data`, the bytes of file `path`, as UTF-8 text.

    No newline is translated: a lone CR stays a CR, which JSON reads as
    whitespace. Bytes that are not UTF-8 raise DatasetIoError, whose message
    names the first bad byte by its offset in `data`.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetIoError(f"cannot read {Path(path)}: {exc}") from exc


def read_json(path: str | Path):
    """The JSON value a file holds; DatasetIoError when it cannot be read or parsed."""
    try:
        return json.loads(read_jsonl_text(path))
    except (ValueError, RecursionError) as exc:
        raise DatasetIoError(f"{Path(path)} is not valid JSON: {json_error(exc)}") from None


def json_error(exc: "ValueError | RecursionError") -> str:
    """Why json.loads failed, in one line. Besides a JSONDecodeError it
    raises a plain ValueError for an integer of more than 4300 digits, and a
    RecursionError for a value nested about 1000 deep."""
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
            except (ValueError, RecursionError) as exc:
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


def valid_manoeuvres(manoeuvres):
    """Yield the manoeuvres of an iterable until validate_manoeuvre rejects one; raise its ValidationError."""
    for m in manoeuvres:
        if (error := validate_manoeuvre(m)) is not None:
            raise error
        yield m


def iter_manoeuvres(text: str):
    """Parse and validate each manoeuvre line of text in order.

    Raises ParseError or ValidationError at the first bad line, after
    yielding every manoeuvre before it; a ParseError numbers its line from 1
    at the start of `text`.
    """
    return valid_manoeuvres(_manoeuvre_from_obj(obj, line_number, _may_hold_bool(line))
                            for line_number, line, obj in jsonl_objects(text))


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a JSONL dataset, preserving line order."""
    manoeuvres = tuple(iter_manoeuvres(read_jsonl_text(path)))
    # Dataset rejects a repeated id with DuplicateIdError
    return Dataset(manoeuvres=manoeuvres, provenance=str(Path(path)))


def save_dataset(manoeuvres, path: str | Path) -> None:
    """Write the manoeuvres of an iterable, such as a Dataset or a generator,
    as JSONL (atomic: temp file + rename). Each line is written as soon as
    it is made, so no more than one line of the file is held at a time."""
    atomic_write_text(path, jsonl_lines(map(_manoeuvre_to_obj, manoeuvres)))


def jsonl_lines(objs):
    """Yield each object as one JSON line ending in LF."""
    for obj in objs:
        yield json.dumps(obj) + "\n"


def atomic_write_text(path: str | Path, *parts) -> None:
    """Write `parts`, one after another, to path via a same-directory temp
    file and rename. A part is a text or an iterable of texts, such as a
    generator of lines, so that pieces of a file need not be joined first
    and a file can be written as its lines are made.

    The file gets the mode a plain open(path, "w") gives it, 0o666 less the
    umask, where tempfile.mkstemp would give 0o600.
    """
    path = Path(path)
    # named after this process, so that remove_temp_files finds it should
    # the process end within the write
    tmp = path.parent / f"{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    try:
        # O_EXCL: the temp file is new, never one that was already there
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                for part in parts:
                    fh.writelines([part] if isinstance(part, str) else part)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DatasetIoError(f"cannot write {path}: {exc}") from exc


def remove_temp_files(path: str | Path, pid: int) -> None:
    """Delete the temp files of `path` that atomic_write_text left in process
    `pid`, which ended within the write without cleaning up (killed, say)."""
    path = Path(path)
    prefix = f"{path.name}.{pid}."
    for name in os.listdir(path.parent):
        if name.startswith(prefix) and name.endswith(".tmp"):
            (path.parent / name).unlink(missing_ok=True)


def sha256_of_obj(obj) -> str:
    """Stable digest of a JSON-serializable object."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
