"""Raw manoeuvre to fixed-length, shape-only feature vector.

One kernel, `_kernel`, takes a block of traces through the whole chain:
smooth -> active-window detection -> phase segmentation -> plateau-median
normalization -> resampling to a fixed number of points.
Dividing by the plateau median makes the output exactly invariant to
amplitude scaling, and resampling over the active window makes it invariant
to sample rate and manoeuvre duration, so the vector captures manoeuvre
shape and nothing about the installation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import (
    FaultClass,
    ParseError,
    PmDiagError,
    check_unique_ids,
    json_type_error,
    jsonl_lines,
    jsonl_objects,
    read_jsonl_text,
)

# Peak/plateau boundary: a phase boundary is where the smoothed signal
# settles into [0, PLATEAU_BAND * plateau_level]. Above default noise,
# below the weakest fault elevation (1.2x).
PLATEAU_BAND = 1.15


class WindowTooLargeError(PmDiagError):
    """Smoothing window exceeds the trace length."""


class FlatSignalError(PmDiagError):
    """The trace never rises above the noise floor."""


class SegmentationFailedError(PmDiagError):
    """No three-phase structure found (a phase would be empty)."""


@dataclass(frozen=True)
class PreprocessConfig:
    smooth_window: int = 5
    active_threshold_frac: float = 0.1
    noise_floor: float = 1e-6
    feature_length: int = 128
    plateau_core_frac: float = 0.5

    def __post_init__(self):
        if self.smooth_window < 3 or self.smooth_window % 2 == 0:
            raise ValueError("smooth_window must be odd and >= 3")
        if not 0 < self.active_threshold_frac < 1:
            raise ValueError("active_threshold_frac must be in (0, 1)")
        if self.feature_length < 16:
            raise ValueError("feature_length must be >= 16")
        if not 0 < self.plateau_core_frac <= 1:
            raise ValueError("plateau_core_frac must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """The record type of `load_features`: one manoeuvre's feature row and its id."""

    values: np.ndarray
    source_id: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


# A block of the kernel holds at most this many cells, rows times the
# longest padded row: its largest temporaries are then a few float matrices
# of 1 MiB (64 rows of 2048 samples), and a longer trace is a block of its own.
BLOCK_CELLS = 1 << 17


class _Block(NamedTuple):
    """What `_kernel` computed for a block of traces, one entry or row per
    trace. A trace's results mean nothing where `errors` holds its failure.

    Row r of `smoothed` holds trace r's smoothed samples, then -inf.
    `active` holds the first and end indices of the active windows, `phases`
    the end of the unlock peak, the start of the lock peak and the plateau
    level, `values` the features.
    """

    errors: list
    smoothed: np.ndarray
    active: "tuple[np.ndarray, np.ndarray]"
    phases: "tuple[np.ndarray, np.ndarray, np.ndarray]"
    values: np.ndarray


def _kernel(traces: list, cfg: PreprocessConfig) -> _Block:
    """The preprocess kernel: every step for a block of 1-D float64 traces at
    once, in array operations over matrices of one row per trace. Each
    trace's results have the bits it gives alone, and each trace keeps the
    first failure it meets, in rule order. A failed trace goes through every
    later step on values of no meaning, so floating-point warnings are not
    shown."""
    n = np.array([x.size for x in traces])
    errors = [None] * len(traces)
    live = np.ones(len(traces), dtype=bool)

    def fail(rows, error_of):
        """Give each row where `rows` holds, and that has not failed yet, the failure error_of(row)."""
        for r in np.flatnonzero(rows & live):
            errors[r] = error_of(r)
            live[r] = False

    w = cfg.smooth_window
    with np.errstate(all="ignore"):
        fail(n < w, lambda r: WindowTooLargeError(f"window {w} > length {n[r]}"))
        s = _smoothed(traces, n, w)
        peak = s.max(axis=1)
        fail(peak <= cfg.noise_floor,
             lambda r: FlatSignalError(f"max {float(peak[r])!r} <= noise floor {cfg.noise_floor!r}"))
        threshold = cfg.active_threshold_frac * peak
        a, b = _first_and_end(s > threshold[:, None])
        phases = _phases(s, a, b, cfg, live, fail)
        values = _resampled(s, n, a, b, threshold, cfg.feature_length)
        values /= phases[2][:, None]
        np.maximum(values, 0.0, out=values)
        return _Block(errors, s, (a, b), phases, values)


def _smoothed(traces: list, n: np.ndarray, window: int) -> np.ndarray:
    """The centered moving averages of the traces, with reflected edges, as
    the rows of a matrix at least `window` wide, -inf after each trace. The
    row of a trace shorter than the window means nothing."""
    half = window // 2
    width = max(int(n.max()), 1) + 2 * half + 1
    # row r: trace r, each end mirrored about its edge sample, which is not
    # repeated (the values of np.pad(x, half, mode="reflect")), then -inf,
    # at least once; the 2 * half cells after the last row complete its
    # last window
    flat = np.full(len(traces) * width + 2 * half, -np.inf)
    padded = flat[: len(traces) * width].reshape(len(traces), width)
    for row, x in zip(padded, traces):
        if x.size >= window:
            row[half : half + x.size] = x
    padded[:, :half] = padded[:, 2 * half : half : -1]
    rows, j = np.arange(len(traces))[:, None], np.arange(half)
    right = (n + half)[:, None] + j
    padded[rows, right] = padded[rows, right - 2 - 2 * j]
    # one convolution: output j of row r is the same w-term dot product of
    # the trace's padded samples j to j + w - 1 as alone, and each output
    # after the trace has a -inf among its terms, and is -inf
    return np.convolve(flat, _box_kernel(window), mode="valid").reshape(len(traces), width)


@functools.lru_cache(maxsize=None)
def _box_kernel(window: int) -> np.ndarray:
    kernel = np.full(window, 1.0 / window)
    kernel.flags.writeable = False
    return kernel


def _first_and_end(mask: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per row, the first column where `mask` holds and the one after the
    last; a row where it holds nowhere gets an empty range at 0."""
    first = mask.argmax(axis=1)
    found = mask[np.arange(len(mask)), first]
    return first, np.where(found, mask.shape[1] - mask[:, ::-1].argmax(axis=1), first)


def _phases(s: np.ndarray, a: np.ndarray, b: np.ndarray, cfg: PreprocessConfig, live: np.ndarray, fail):
    """The end of the unlock peak, the start of the lock peak and the plateau
    level of each active window [a, b) of the rows of `s`, in the columns of
    `s`; a row that breaks a rule fails (see _kernel). The plateau level is
    the median of the window's central part. A peak/plateau boundary is the
    first index where the signal drops into the plateau band and holds it
    for smooth_window samples after the peak exceeded the band (mirrored for
    the lock peak from the window's end)."""
    n = b - a
    w = cfg.smooth_window
    fail(n < 32, lambda r: SegmentationFailedError(f"active window too short ({n[r]} samples)"))
    level = _plateau_levels(s, a, n, cfg.plateau_core_frac, live)
    fail(level <= 0, lambda r: SegmentationFailedError("plateau level is not positive"))

    band = (PLATEAU_BAND * level)[:, None]
    inside = np.zeros(s.shape, dtype=bool)
    for row, first, end in zip(inside, a.tolist(), b.tolist()):
        row[first:end] = True
    peaks = s > band
    peaks &= inside
    p0, p1 = _first_and_end(peaks)
    fail(p0 == p1, lambda r: SegmentationFailedError("no peak exceeds the plateau band"))
    fail(n < w, lambda r: SegmentationFailedError("active window shorter than smooth window"))

    # runs[:, j]: all of s[:, j:j+w] lies inside the window and the plateau band
    in_band = np.less_equal(s, band, out=peaks)
    in_band &= inside
    in_band &= s >= 0.0
    starts = s.shape[1] - w + 1
    runs = in_band[:, :starts].copy()
    for d in range(1, w):
        runs &= in_band[:, d : starts + d]
    # the first run that starts after the unlock peak's first sample p0,
    # and the last run [j, j+w) that ends before the lock peak's last
    # sample p1 - 1: j < p1 - w (an empty range where there is none)
    cols = np.arange(starts)
    after = np.greater(cols, p0[:, None], out=in_band[:, :starts])
    after &= runs
    i, end = _first_and_end(after)
    fail(i == end, lambda r: SegmentationFailedError("no plateau after the unlock peak"))
    before = np.less(cols, (p1 - w)[:, None], out=after)
    before &= runs
    before, k = _first_and_end(before)
    fail(before == k, lambda r: SegmentationFailedError("no plateau before the lock peak"))
    k += w - 1
    fail(i >= k, lambda r: SegmentationFailedError("movement phase is empty"))
    return i, k, level


def _plateau_levels(s: np.ndarray, a: np.ndarray, n: np.ndarray, core_frac: float, live: np.ndarray) -> np.ndarray:
    """The median of the central part of each active window [a, a + n),
    bit for bit as np.median takes it: each core, padded with +inf to the
    longest, is sorted, and gives its middle value or the mean (x + y) / 2
    of its two middle values."""
    pad = np.floor(n * (1.0 - core_frac) / 2.0).astype(np.intp)
    core = np.where(live, n - 2 * pad, 1)  # a failed row gets a core of one cell
    cores = np.full((len(s), core.max()), np.inf)
    for row, trace, first, size in zip(cores, s, (a + pad).tolist(), core.tolist()):
        row[:size] = trace[first : first + size]
    cores.sort(axis=1)
    rows, half = np.arange(len(s)), core // 2
    upper = cores[rows, half]
    level = np.where(core % 2 == 1, upper, (cores[rows, half - 1] + upper) / 2)
    # a NaN sorts last, after the padding, and np.median gives NaN where there is one
    return np.where(np.isnan(cores[:, -1]), np.nan, level)


def _resampled(
    s: np.ndarray, n: np.ndarray, a: np.ndarray, b: np.ndarray, threshold: np.ndarray, length: int
) -> np.ndarray:
    """Each row of `s` resampled at `length` points from its refined first
    to its refined last active position, with np.interp's bits."""
    # s's cells by flat index: row r's column j is cell starts[r] + j
    cells, starts = s.ravel(), np.arange(len(s)) * s.shape[1]
    # Sub-sample threshold-crossing positions. Integer endpoints shift the
    # resampling grid by up to one sample between sample rates, which is
    # the dominant cross-rate feature error at steep edges.
    first, before = cells[starts + a], cells[starts + a - 1]
    rising = (a > 0) & (first > before)
    p0 = np.where(rising, a - (first - threshold) / (first - before), a)
    p0 = np.minimum(np.maximum(p0, a - 1.0), a)
    last, after = cells[starts + b - 1], cells[starts + np.minimum(b, s.shape[1] - 1)]
    falling = (b < n) & (last > after)
    p1 = np.where(falling, (b - 1) + (last - threshold) / (last - after), b - 1)
    p1 = np.minimum(np.maximum(p1, b - 1.0), b)

    # p0 + (p1 - p0) * i / (L - 1), operation for operation, in one buffer
    grid = np.arange(length, dtype=np.float64) * (p1 - p0)[:, None]
    grid /= length - 1
    grid += p0[:, None]
    # np.interp on the knots 0, 1, ..., n - 1: a point at a knot, or at or
    # beyond the last one, takes that knot's value, and a point x after knot
    # j takes (fp[j + 1] - fp[j]) / 1.0 * (x - j) + fp[j], where the division
    # by the knot spacing 1.0 changes no bit
    knot = np.floor(grid)
    last_knot = (starts + n - 1)[:, None]
    j = np.minimum(starts[:, None] + np.maximum(knot.astype(np.intp), 0), last_knot)
    at = cells[j]
    slope = cells[np.minimum(j + 1, last_knot)]
    slope -= at
    values = slope * (grid - knot) + at
    return np.where((grid == knot) | (j == last_knot), at, values)


def preprocess_rows(manoeuvres, cfg: PreprocessConfig = PreprocessConfig()) -> "tuple[np.ndarray, list]":
    """The feature vectors of a sequence of manoeuvres that validate_manoeuvre
    passed: an (n, feature_length) matrix, and a list that holds, for each
    manoeuvre, None or the PmDiagError of the first rule it breaks. A failed
    manoeuvre's row means nothing; every other row has the bits the kernel
    gives that manoeuvre alone, whatever manoeuvres surround it.

    The kernel takes the manoeuvres in consecutive blocks of at most
    BLOCK_CELLS cells, rows times the longest padded row; a longer trace is
    a block of its own. Each block's rows are copied into the matrix as it
    is done, so that no more than one block's arrays are held at a time.
    """
    traces = [m.samples for m in manoeuvres]
    values, errors, start, pad = np.empty((len(traces), cfg.feature_length)), [], 0, cfg.smooth_window - 1
    while start < len(traces):
        end, width = start + 1, traces[start].size + pad
        while end < len(traces) and (end + 1 - start) * max(width, traces[end].size + pad) <= BLOCK_CELLS:
            width = max(width, traces[end].size + pad)
            end += 1
        block = _kernel(traces[start:end], cfg)
        values[start:end] = block.values
        errors += block.errors
        start = end
        del block  # freed before the next block is made
    return values, errors


FEATURE_KEYS = {"source_id", "values", "label"}


def _feature_to_obj(source_id: str, row: np.ndarray, label: "FaultClass | None") -> dict:
    obj = {"source_id": source_id, "values": row.tolist()}
    if label is not None:
        obj["label"] = label.name
    return obj


def features_lines(ids, values, labels):
    """The features.jsonl lines of manoeuvres `ids`, their rows of an
    (n, width) matrix `values`, and their FaultClass labels or None, as an
    iterator that makes each line as it is taken (see core.jsonl_lines)."""
    return jsonl_lines(_feature_to_obj(*record) for record in zip(ids, values, labels, strict=True))


def load_features(path: str | Path) -> "list[tuple[FeatureVector, FaultClass | None]]":
    records: list[tuple[FeatureVector, FaultClass | None]] = []
    for line_number, _, obj in jsonl_objects(read_jsonl_text(path)):
        if not isinstance(obj, dict) or not FEATURE_KEYS >= set(obj):
            raise ParseError(line_number, "not a feature object")
        # np.asarray takes "1.5" as 1.5 and true as 1.0; a nested array goes on to the row-shape check
        if (error := json_type_error(obj, {"source_id": "str", "values": "array"})) is not None:
            raise ParseError(line_number, error)
        try:
            label = FaultClass.from_name(obj["label"]) if "label" in obj else None
            fv = FeatureVector(
                values=np.asarray(obj["values"], dtype=np.float64),
                source_id=obj["source_id"],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(line_number, f"bad feature record: {exc}") from None
        if fv.values.size == 0:
            raise ParseError(line_number, f"no values in features of {fv.source_id!r}")
        if not np.isfinite(fv.values).all():
            raise ParseError(line_number, f"non-finite value in features of {fv.source_id!r}")
        # the records are scored as one matrix: every row is a list of one length
        width = records[0][0].values.size if records else fv.values.size
        if fv.values.shape != (width,):
            raise ParseError(line_number, f"values of {fv.source_id!r} have shape "
                             f"{fv.values.shape}, not ({width},) as in the first record")
        records.append((fv, label))
    # each row is one manoeuvre, as in a dataset
    check_unique_ids(fv.source_id for fv, _ in records)
    return records
