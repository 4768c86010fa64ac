"""Raw manoeuvre to fixed-length, shape-only feature vector.

The chain is smooth -> active-window detection -> phase segmentation ->
plateau-median normalization -> resampling to a fixed number of points.
Dividing by the plateau median makes the output exactly invariant to
amplitude scaling, and resampling over the active window makes it invariant
to sample rate and manoeuvre duration, so the vector captures manoeuvre
shape and nothing about the installation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    FaultClass,
    Manoeuvre,
    ParseError,
    PmDiagError,
    atomic_write_text,
    jsonl_objects,
    jsonl_text,
    read_jsonl_text,
    validate_manoeuvre,
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


@dataclass(frozen=True)
class PhaseSegmentation:
    """Index ranges of the three manoeuvre phases within the trace."""

    active: tuple[int, int]
    unlock_peak: tuple[int, int]
    movement: tuple[int, int]
    lock_peak: tuple[int, int]
    plateau_level: float


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Fixed-length normalized representation of one manoeuvre."""

    values: np.ndarray
    source_id: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def smooth(samples: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with reflected edges; length-preserving."""
    x = np.asarray(samples, dtype=np.float64)
    if window % 2 == 0 or window < 3:
        raise ValueError("window must be odd and >= 3")
    if window > x.size:
        raise WindowTooLargeError(f"window {window} > length {x.size}")
    half = window // 2
    # the values of np.pad(x, half, mode="reflect") at a tenth of its cost:
    # each end is mirrored about its edge sample, which is not repeated
    padded = np.concatenate((x[half:0:-1], x, x[-2 : -half - 2 : -1]))
    return np.convolve(padded, _box_kernel(window), mode="valid")


@functools.lru_cache(maxsize=None)
def _box_kernel(window: int) -> np.ndarray:
    kernel = np.full(window, 1.0 / window)
    kernel.flags.writeable = False
    return kernel


def _active_window(s: np.ndarray, cfg: PreprocessConfig) -> tuple[tuple[int, int], float]:
    # the window and the threshold that defines it; preprocess reuses both
    peak = float(s.max())
    if peak <= cfg.noise_floor:
        raise FlatSignalError(f"max {peak!r} <= noise floor {cfg.noise_floor!r}")
    threshold = cfg.active_threshold_frac * peak
    above = (s > threshold).nonzero()[0]
    return (int(above[0]), int(above[-1]) + 1), threshold


def detect_active_window(smoothed: np.ndarray, cfg: PreprocessConfig) -> tuple[int, int]:
    """Index range [first, last+1) where the trace exceeds the threshold."""
    return _active_window(np.asarray(smoothed, dtype=np.float64), cfg)[0]


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-D float64 array, bit for bit, at a fifth
    of its cost: the same partition, then the middle value or the mean
    (a + b) / 2 of the two middle values."""
    h = x.size // 2
    part = x.copy()
    if x.size % 2:
        part.partition((h, -1))
        mid = part.item(h)
    else:
        part.partition((h - 1, h, -1))
        mid = (part.item(h - 1) + part.item(h)) / 2
    # a NaN sorts last, and np.median returns NaN if there is one
    return math.nan if math.isnan(part[-1]) else mid


def segment_phases(
    smoothed: np.ndarray, active: tuple[int, int], cfg: PreprocessConfig
) -> PhaseSegmentation:
    """Split the active window into unlock peak, movement, lock peak.

    The plateau level is the median of the central part of the active
    window. A peak/plateau boundary is the first index where the signal
    drops into the plateau band and holds it for at least smooth_window
    samples after the peak has exceeded the band (mirrored for the lock
    peak from the end of the window).
    """
    a, b = active
    n = b - a
    if n < 32:
        raise SegmentationFailedError(f"active window too short ({n} samples)")
    s = np.asarray(smoothed[a:b], dtype=np.float64)
    w = cfg.smooth_window

    core_pad = int(math.floor(n * (1.0 - cfg.plateau_core_frac) / 2.0))
    plateau_level = _median(s[core_pad : n - core_pad])
    if plateau_level <= 0:
        raise SegmentationFailedError("plateau level is not positive")

    band = PLATEAU_BAND * plateau_level
    peaks = (s > band).nonzero()[0]
    if peaks.size == 0:
        raise SegmentationFailedError("no peak exceeds the plateau band")
    p0, p1 = int(peaks[0]), int(peaks[-1])

    if n < w:
        raise SegmentationFailedError("active window shorter than smooth window")
    # run_ok[j]: all of s[j:j+w] lies in the plateau band
    in_band = (s >= 0.0) & (s <= band)
    run_ok = in_band[: n - w + 1].copy()
    for d in range(1, w):
        run_ok &= in_band[d : n - w + 1 + d]
    runs = run_ok.nonzero()[0]

    first = int(runs.searchsorted(p0 + 1))  # first run starting after the peak
    if first == runs.size:
        raise SegmentationFailedError("no plateau after the unlock peak")
    i = int(runs[first])

    # the last run [j, j+w) that ends before the lock peak top: j <= p1 - w
    last = int(runs.searchsorted(p1 - w, side="right")) - 1
    if last < 0:
        raise SegmentationFailedError("no plateau before the lock peak")
    k = int(runs[last]) + w

    if not i < k:
        raise SegmentationFailedError("movement phase is empty")
    return PhaseSegmentation(
        active=(a, b),
        unlock_peak=(a, a + i),
        movement=(a + i, a + k),
        lock_peak=(a + k, b),
        plateau_level=plateau_level,
    )


def _refined_endpoints(
    s: np.ndarray, active: tuple[int, int], threshold: float
) -> tuple[float, float]:
    # Sub-sample threshold-crossing positions. Integer endpoints shift the
    # resampling grid by up to one sample between sample rates, which is
    # the dominant cross-rate feature error at steep edges.
    a, b = active
    p0 = float(a)
    if a > 0 and s[a] > s[a - 1]:
        p0 = a - (s[a] - threshold) / (s[a] - s[a - 1])
        p0 = min(max(p0, a - 1.0), float(a))
    p1 = float(b - 1)
    if b < s.size and s[b - 1] > s[b]:
        p1 = (b - 1) + (s[b - 1] - threshold) / (s[b - 1] - s[b])
        p1 = min(max(p1, float(b - 1)), float(b))
    return p0, p1


def preprocess(m: Manoeuvre, cfg: PreprocessConfig = PreprocessConfig()) -> FeatureVector:
    """Turn a raw manoeuvre into a normalized fixed-length feature vector.

    The output is invariant (to float roundoff) under scaling of the input
    amplitude, and invariant within interpolation tolerance under change of
    sample rate for the same underlying shape.
    """
    error = validate_manoeuvre(m)
    if error is not None:
        raise error
    s = smooth(m.samples, cfg.smooth_window)
    active, threshold = _active_window(s, cfg)
    seg = segment_phases(s, active, cfg)

    p0, p1 = _refined_endpoints(s, active, threshold)
    L = cfg.feature_length
    # p0 + (p1 - p0) * i / (L - 1), operation for operation, in one buffer
    grid = np.arange(L, dtype=np.float64)
    grid *= p1 - p0
    grid /= L - 1
    grid += p0
    values = np.interp(grid, np.arange(s.size, dtype=np.float64), s)
    values /= seg.plateau_level
    np.maximum(values, 0.0, out=values)
    return FeatureVector(values=values, source_id=m.id)


FEATURE_KEYS = {"source_id", "values", "label"}


def _feature_to_obj(fv: FeatureVector, label: FaultClass | None) -> dict:
    obj = {"source_id": fv.source_id, "values": fv.values.tolist()}
    if label is not None:
        obj["label"] = label.name
    return obj


def features_text(records) -> str:
    """The features.jsonl lines of (FeatureVector, FaultClass or None)
    records, labels passed through (see core.jsonl_text)."""
    return jsonl_text(_feature_to_obj(fv, label) for fv, label in records)


def save_features(
    records: "list[tuple[FeatureVector, FaultClass | None]]", path: str | Path
) -> None:
    """Write features as JSONL with pass-through labels (atomic)."""
    atomic_write_text(path, features_text(records))


def load_features(path: str | Path) -> "list[tuple[FeatureVector, FaultClass | None]]":
    records: list[tuple[FeatureVector, FaultClass | None]] = []
    for line_number, _, obj in jsonl_objects(read_jsonl_text(path)):
        if not isinstance(obj, dict) or not FEATURE_KEYS >= set(obj):
            raise ParseError(line_number, "not a feature object")
        try:
            label = FaultClass.from_name(obj["label"]) if "label" in obj else None
            fv = FeatureVector(
                values=np.asarray(obj["values"], dtype=np.float64),
                source_id=obj["source_id"],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(line_number, f"bad feature record: {exc}") from None
        if not np.isfinite(fv.values).all():
            raise ParseError(line_number, f"non-finite value in features of {fv.source_id!r}")
        # the records are scored as one matrix: every row is a list of one length
        width = records[0][0].values.size if records else fv.values.size
        if fv.values.shape != (width,):
            raise ParseError(line_number, f"values of {fv.source_id!r} have shape "
                             f"{fv.values.shape}, not ({width},) as in the first record")
        records.append((fv, label))
    return records
