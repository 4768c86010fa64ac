import json
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from pmdiag import cli, preprocess, synth
from pmdiag.core import (
    FaultClass, Manoeuvre, ParseError, PmDiagError, validate_manoeuvre,
)
from pmdiag.preprocess import (
    FlatSignalError,
    PreprocessConfig,
    SegmentationFailedError,
    WindowTooLargeError,
    features_lines,
    load_features,
)
from pmdiag.synth import SynthConfig

from conftest import AWKWARD_FLOATS, preprocessed, profile_at_rate

PCFG = PreprocessConfig()


class Phases(NamedTuple):
    """Index ranges of the three manoeuvre phases within a trace, and its plateau level."""

    active: tuple
    unlock_peak: tuple
    movement: tuple
    lock_peak: tuple
    plateau_level: float


def kernel_of(samples, cfg=PCFG):
    """The kernel's block of one trace."""
    return preprocess._kernel([np.asarray(samples, dtype=np.float64)], cfg)


def smooth(samples, window):
    """The kernel's smoothed trace, or the WindowTooLargeError it fails with."""
    x = np.asarray(samples, dtype=np.float64)
    block = kernel_of(x, PreprocessConfig(smooth_window=window))
    if isinstance(block.errors[0], WindowTooLargeError):
        raise block.errors[0]
    return block.smoothed[0, : x.size]


def detect_active_window(samples, cfg=PCFG):
    """The kernel's active window [first, last + 1) of a trace, or the failure it meets before."""
    block = kernel_of(samples, cfg)
    if isinstance(block.errors[0], (WindowTooLargeError, FlatSignalError)):
        raise block.errors[0]
    (a,), (b,) = block.active
    return int(a), int(b)


def phases_of(m, cfg=PCFG):
    """The kernel's Phases of a manoeuvre's trace, or the failure it meets first."""
    block = kernel_of(m.samples, cfg)
    if block.errors[0] is not None:
        raise block.errors[0]
    (a,), (b,) = block.active
    (i,), (k,), (level,) = block.phases
    return Phases((int(a), int(b)), (int(a), int(i)), (int(i), int(k)), (int(k), int(b)), float(level))


def phases_block(rows, cfg):
    """preprocess._phases of a block of hand-made (smoothed trace, active
    window) rows, each padded with -inf: the rows' errors, and the ends of
    their unlock peaks, the starts of their lock peaks and their plateau levels."""
    s = np.full((len(rows), max(max(x.size for x, _ in rows), cfg.smooth_window)), -np.inf)
    for row, (x, _) in zip(s, rows):
        row[: x.size] = x
    a, b = (np.array(bounds) for bounds in zip(*(window for _, window in rows)))
    errors, live = [None] * len(rows), np.ones(len(rows), dtype=bool)

    def fail(failing, error_of):
        for r in np.flatnonzero(failing & live):
            errors[r], live[r] = error_of(r), False

    with np.errstate(all="ignore"):
        return errors, preprocess._phases(s, a, b, cfg, live, fail)


def segment_phases(s, active, cfg):
    """The Phases of one hand-made smoothed trace and its active window, or the failure it meets first."""
    (error,), ((i,), (k,), (level,)) = phases_block([(s, active)], cfg)
    if error is not None:
        raise error
    a, b = active
    return Phases((a, b), (a, int(i)), (int(i), int(k)), (int(k), b), float(level))


def features_of(m, cfg=PCFG):
    """The feature row preprocess_rows gives a manoeuvre alone, or its failure."""
    values, (error,) = preprocess.preprocess_rows([m], cfg)
    if error is not None:
        raise error
    return values[0]


def scaled(m, k):
    return Manoeuvre(m.id, m.technology, m.timestamp, m.samples * k, m.sample_rate, m.label)


class TestSmooth:
    def test_constant_unchanged(self):
        out = smooth(np.array([3.0, 3, 3, 3, 3]), 3)
        assert np.array_equal(out, np.full(5, 3.0))

    def test_impulse(self):
        out = smooth(np.array([0.0, 0, 1, 0, 0]), 3)
        assert np.allclose(out, [0, 1 / 3, 1 / 3, 1 / 3, 0], atol=1e-15)
        assert out[0] == 0.0 and out[-1] == 0.0

    def test_window_too_large(self):
        with pytest.raises(WindowTooLargeError):
            smooth(np.ones(5), 7)

    def test_length_preserved(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=123)
        assert smooth(x, 5).shape == x.shape


class TestActiveWindow:
    def test_pads_excluded(self, clean_cfg):
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 3)
        p = synth.nominal_params(clean_cfg)
        a, b = detect_active_window(m.samples, PCFG)
        assert a >= p.n_pad
        assert b <= p.total - p.n_pad

    def test_flat_signal(self):
        with pytest.raises(FlatSignalError):
            detect_active_window(np.zeros(100), PCFG)

    def test_all_above_threshold(self):
        s = np.full(50, 2.0)
        assert detect_active_window(s, PCFG) == (0, 50)


class TestSegmentPhases:
    def test_noiseless_plateau_exact(self, clean_cfg):
        seg = phases_of(synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 1))
        assert abs(seg.plateau_level - 3.0) < 1e-9

    def test_boundaries_near_band_crossings(self, clean_cfg):
        # oracle: band rule applied to the raw noiseless curve with the
        # true plateau level
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 4)
        raw = m.samples
        band = 1.15 * 3.0
        above = np.flatnonzero(raw > band)
        gaps = np.flatnonzero(np.diff(above) > 1)
        unlock_end_true = above[gaps[0]] + 1
        lock_start_true = above[gaps[-1] + 1]
        seg = phases_of(m)
        w = PCFG.smooth_window
        assert abs(seg.unlock_peak[1] - unlock_end_true) <= w
        assert abs(seg.lock_peak[0] - lock_start_true) <= w

    def test_phase_ordering_and_partition(self, noisy_cfg):
        for seed in range(20):
            seg = phases_of(synth.generate_manoeuvre(noisy_cfg, FaultClass.Nominal, 0.0, seed))
            a, b = seg.active
            assert a == seg.unlock_peak[0] < seg.unlock_peak[1]
            assert seg.unlock_peak[1] == seg.movement[0] < seg.movement[1]
            assert seg.movement[1] == seg.lock_peak[0] < seg.lock_peak[1]
            assert seg.lock_peak[1] == b

    def test_friction_plateau(self, clean_cfg):
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.Friction, 0.5, 3)
        seg = phases_of(m)
        assert abs(seg.plateau_level - 4.2) / 4.2 < 0.02

    def test_ramp_fails(self):
        with pytest.raises(SegmentationFailedError):
            phases_of(Manoeuvre("ramp", "MJ", 0.0, np.linspace(0.0, 5.0, 200), 100.0))


class TestPreprocess:
    def test_length_and_normalization(self, noisy_cfg):
        v = features_of(synth.generate_manoeuvre(noisy_cfg, FaultClass.Nominal, 0.0, 1))
        assert v.shape == (128,)
        assert np.isfinite(v).all()
        assert (v >= 0).all()
        # plateau region sits at ~1.0 after normalization
        assert abs(np.median(v[48:80]) - 1.0) < 0.05

    def test_fixed_length_across_durations(self, mj_profile):
        for move in (2.0, 5.0, 12.0, 20.0):
            prof = profile_at_rate(mj_profile, 100.0)
            prof = type(prof)(prof.name, prof.supply, 100.0, 8.0, 3.0, move)
            cfg = SynthConfig(profile=prof, noise_sigma=0.05)
            assert features_of(synth.generate_manoeuvre(cfg, FaultClass.Nominal, 0.0, 2)).shape == (128,)

    def test_scale_invariance(self, noisy_cfg):
        for seed in range(10):
            m = synth.generate_manoeuvre(noisy_cfg, FaultClass.Nominal, 0.0, seed)
            base = features_of(m)
            for k in (0.5, 0.9, 2.0):
                v = features_of(scaled(m, k))
                assert np.abs(v - base).max() <= 1e-12

    def test_sample_rate_invariance(self, mj_profile):
        # same continuous shape: duration jitter off so segment layouts match
        for seed in range(10):
            cfg100 = SynthConfig(profile=profile_at_rate(mj_profile, 100.0), amplitude_jitter=0.05)
            cfg200 = SynthConfig(profile=profile_at_rate(mj_profile, 200.0), amplitude_jitter=0.05)
            f100 = features_of(synth.generate_manoeuvre(cfg100, FaultClass.Nominal, 0.0, seed))
            f200 = features_of(synth.generate_manoeuvre(cfg200, FaultClass.Nominal, 0.0, seed))
            assert np.abs(f100 - f200).max() <= 0.02

    def test_shape_fidelity_vs_analytic_resample(self, clean_cfg, mj_profile):
        # oracle: the same curve sampled at 5 kHz is as good as analytic
        fine_cfg = SynthConfig(profile=profile_at_rate(mj_profile, 5000.0))
        fine = synth.build_curve(synth.nominal_params(fine_cfg))
        above = np.flatnonzero(fine > 0.1 * fine.max())
        a, b = above[0], above[-1]
        grid = a + (b - a) * np.arange(128) / 127.0
        oracle = np.interp(grid, np.arange(fine.size), fine) / 3.0

        v = features_of(synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 6))
        rms = float(np.sqrt(np.mean((v - oracle) ** 2)))
        assert rms <= 0.01

    def test_flat_signal_propagates(self):
        m = Manoeuvre("flat", "MJ", 0.0, np.zeros(100), 100.0)
        with pytest.raises(FlatSignalError):
            features_of(m)

    def test_no_sample_above_the_threshold_is_an_empty_window(self):
        # under a negative noise floor a trace whose maximum is not positive
        # is not flat, yet no sample exceeds its threshold: one failure, not
        # an IndexError
        m = Manoeuvre("negative", "MJ", 0.0, -np.ones(64), 100.0)
        with pytest.raises(SegmentationFailedError, match=r"active window too short \(0 samples\)"):
            features_of(m, PreprocessConfig(noise_floor=-5.0))

    def test_memory_grows_with_the_output_not_the_blocks(self):
        # each block's matrices are dropped once its rows are copied out, so
        # three times the default plan's traces add about the output's growth
        cfg = cli.load_run_config(None)

        def peak_and_output(scale):
            counts = {cls: n * scale for cls, n in cfg.counts.items()}
            manoeuvres = list(synth.plan_dataset(counts, cfg.synth_cfg, cfg.severity_range).manoeuvres())
            tracemalloc.start()
            try:
                values, _ = preprocess.preprocess_rows(manoeuvres)
                return tracemalloc.get_traced_memory()[1], values.nbytes
            finally:
                tracemalloc.stop()

        (peak_1, output_1), (peak_3, output_3) = peak_and_output(1), peak_and_output(3)
        assert peak_3 - peak_1 < 2 * (output_3 - output_1)


# A reference kernel in plain numpy: np.pad(..., mode="reflect") for the
# edges, np.median for the plateau level and the run test as an integer
# convolution. TestReferenceKernel holds preprocess to its bits and to its
# failures.
def reference_smooth(samples, window):
    x = np.asarray(samples, dtype=np.float64)
    if window % 2 == 0 or window < 3:
        raise ValueError("window must be odd and >= 3")
    if window > x.size:
        raise WindowTooLargeError(f"window {window} > length {x.size}")
    half = window // 2
    padded = np.pad(x, half, mode="reflect")
    return np.convolve(padded, np.full(window, 1.0 / window), mode="valid")


def reference_active_window(s, cfg):
    peak = float(s.max())
    if peak <= cfg.noise_floor:
        raise FlatSignalError(f"max {peak!r} <= noise floor {cfg.noise_floor!r}")
    above = np.flatnonzero(s > cfg.active_threshold_frac * peak)
    return int(above[0]), int(above[-1]) + 1


def reference_segment_phases(smoothed, active, cfg):
    a, b = active
    n = b - a
    if n < 32:
        raise SegmentationFailedError(f"active window too short ({n} samples)")
    s = np.asarray(smoothed[a:b], dtype=np.float64)
    w = cfg.smooth_window
    core_pad = int(math.floor(n * (1.0 - cfg.plateau_core_frac) / 2.0))
    plateau_level = float(np.median(s[core_pad : n - core_pad]))
    if plateau_level <= 0:
        raise SegmentationFailedError("plateau level is not positive")
    band = 1.15 * plateau_level
    above = s > band
    if not above.any():
        raise SegmentationFailedError("no peak exceeds the plateau band")
    p0 = int(np.argmax(above))
    p1 = n - 1 - int(np.argmax(above[::-1]))
    in_band = (s >= 0.0) & (s <= band)
    if n < w:
        raise SegmentationFailedError("active window shorter than smooth window")
    run_ok = np.convolve(in_band.astype(np.int64), np.ones(w, dtype=np.int64), "valid") == w
    starts = np.flatnonzero(run_ok[p0 + 1 :])
    if starts.size == 0:
        raise SegmentationFailedError("no plateau after the unlock peak")
    i = p0 + 1 + int(starts[0])
    last_start = p1 - w
    ends = np.flatnonzero(run_ok[: last_start + 1]) if last_start >= 0 else np.array([], int)
    if ends.size == 0:
        raise SegmentationFailedError("no plateau before the lock peak")
    k = int(ends[-1]) + w
    if not i < k:
        raise SegmentationFailedError("movement phase is empty")
    return Phases((a, b), (a, a + i), (a + i, a + k), (a + k, b), plateau_level)


def reference_refined_endpoints(s, active, threshold):
    # sub-sample threshold crossings at each end, clamped to one sample
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


def reference_preprocess(m, cfg):
    error = validate_manoeuvre(m)
    if error is not None:
        raise error
    s = reference_smooth(m.samples, cfg.smooth_window)
    active = reference_active_window(s, cfg)
    seg = reference_segment_phases(s, active, cfg)
    threshold = cfg.active_threshold_frac * float(s.max())
    p0, p1 = reference_refined_endpoints(s, active, threshold)
    L = cfg.feature_length
    grid = p0 + (p1 - p0) * np.arange(L, dtype=np.float64) / (L - 1)
    values = np.interp(grid, np.arange(s.size, dtype=np.float64), s) / seg.plateau_level
    return np.maximum(values, 0.0)


def outcome(fn, *args):
    """What fn returned, as bytes, or the type and message of what it raised."""
    try:
        result = fn(*args)
    except PmDiagError as exc:
        return type(exc), str(exc)
    if isinstance(result, Phases):
        bounds = (result.active, result.unlock_peak, result.movement, result.lock_peak)
        return bounds, np.float64(result.plateau_level).tobytes()
    return result.dtype, result.shape, result.tobytes()


def with_peaks(n, *at):
    """A plateau at 1.0 with a peak of 5.0 at each index in at."""
    s = np.ones(n)
    s[list(at)] = 5.0
    return s


def reference_traces():
    """Every fault class on each default profile, noiseless and noisy."""
    traces = []
    for profile in synth.DEFAULT_PROFILES.values():
        for noise in (0.0, 0.09):
            cfg = SynthConfig(profile=profile, noise_sigma=noise, amplitude_jitter=0.05,
                              duration_jitter=0.05)
            for seed, severity in enumerate((0.3, 0.65, 1.0)):
                traces += [synth.generate_manoeuvre(cfg, cls, severity, seed) for cls in FaultClass]
    return traces


REFERENCE_CONFIGS = [
    *(PreprocessConfig(smooth_window=w, plateau_core_frac=frac)
      for w in (3, 5, 7, 9) for frac in (1.0, 0.5, 1e-9)),
    PreprocessConfig(feature_length=16),
]


def config_id(cfg):
    return f"window{cfg.smooth_window}-core{cfg.plateau_core_frac:g}-length{cfg.feature_length}"


# smoothed traces and active windows that segment_phases rejects, one for
# each rule in PCFG, and the start of the reason
SEGMENTATION_FAILURES = {
    "too-short": (np.ones(64), (0, 20), "active window too short"),
    "not-positive": (-np.ones(64), (0, 64), "plateau level is not positive"),
    "no-peak": (np.ones(64), (0, 64), "no peak exceeds the plateau band"),
    "no-plateau-after": (with_peaks(64, 63), (0, 64), "no plateau after the unlock peak"),
    "no-plateau-before": (with_peaks(64, 0), (0, 64), "no plateau before the lock peak"),
    "empty-movement": (with_peaks(64, 10, 12), (0, 64), "movement phase is empty"),
}


class TestReferenceKernel:
    TRACES = reference_traces()

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=config_id)
    def test_same_bits_as_reference(self, cfg):
        core_parities = set()
        for m in self.TRACES:
            s = reference_smooth(m.samples, cfg.smooth_window)
            assert outcome(smooth, m.samples, cfg.smooth_window) == outcome(lambda: s)
            active = reference_active_window(s, cfg)
            assert detect_active_window(m.samples, cfg) == active
            assert outcome(phases_of, m, cfg) == outcome(reference_segment_phases, s, active, cfg)
            assert outcome(features_of, m, cfg) == outcome(reference_preprocess, m, cfg)
            n = active[1] - active[0]
            core_parities.add((n - 2 * math.floor(n * (1.0 - cfg.plateau_core_frac) / 2.0)) % 2)
        assert core_parities == {0, 1}  # the median of an odd and of an even count

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 10, 64])
    def test_smooth_window_up_to_trace_length(self, n):
        x = np.random.default_rng(n).normal(size=n)
        for window in range(3, n + 3, 2):
            assert outcome(smooth, x, window) == outcome(reference_smooth, x, window)

    @pytest.mark.parametrize("n", [32, 33, 64, 65])
    def test_plateau_median_of_random_windows(self, n):
        # two middle values within a factor 2 of each other have every
        # midpoint formula agree; the spread here is wider
        rng = np.random.default_rng(n)
        for _ in range(50):
            s = np.concatenate(([1e3], rng.uniform(0.01, 10.0, n - 2), [1e3]))
            for frac in (1.0, 0.5, 1e-9):
                cfg = PreprocessConfig(plateau_core_frac=frac)
                assert outcome(segment_phases, s, (0, n), cfg) == outcome(
                    reference_segment_phases, s, (0, n), cfg)

    @pytest.mark.parametrize("s, active, reason", SEGMENTATION_FAILURES.values(), ids=SEGMENTATION_FAILURES)
    def test_same_segmentation_failures(self, s, active, reason):
        expected = outcome(reference_segment_phases, s, active, PCFG)
        assert expected[0] is SegmentationFailedError and expected[1].startswith(reason)
        assert outcome(segment_phases, s, active, PCFG) == expected

    def test_window_shorter_than_smooth_window(self):
        s, cfg = with_peaks(33, 0, 32), PreprocessConfig(smooth_window=35)
        expected = outcome(reference_segment_phases, s, (0, 33), cfg)
        assert expected == (SegmentationFailedError, "active window shorter than smooth window")
        assert outcome(segment_phases, s, (0, 33), cfg) == expected

    @pytest.mark.parametrize("at", [2, 20, 32, 44, 61])
    def test_nan_inside_and_outside_the_plateau_core(self, at):
        s = with_peaks(64, 0, 63)
        s[at] = np.nan
        assert outcome(segment_phases, s, (0, 64), PCFG) == outcome(
            reference_segment_phases, s, (0, 64), PCFG)

    @pytest.mark.parametrize("samples, window, error", [
        (np.ones(40), 41, WindowTooLargeError),
        (np.zeros(100), 5, FlatSignalError),
        (np.linspace(0.0, 5.0, 200), 5, SegmentationFailedError),
    ], ids=["window-too-large", "flat", "ramp"])
    def test_same_preprocess_failures(self, samples, window, error):
        m = Manoeuvre("m", "MJ", 0.0, samples, 100.0)
        cfg = PreprocessConfig(smooth_window=window)
        expected = outcome(reference_preprocess, m, cfg)
        assert expected[0] is error
        assert outcome(features_of, m, cfg) == expected


def block_outcomes(values, errors):
    """Each row of preprocess_rows' result, as `outcome` gives it."""
    return [outcome(lambda: row) if error is None else (type(error), str(error))
            for row, error in zip(values, errors)]


def steps(*parts):
    """A trace of (level, count) constant steps."""
    return np.concatenate([np.full(count, level, dtype=np.float64) for level, count in parts])


def resampled(samples, n):
    """The trace `samples` linearly resampled to n samples."""
    return np.interp(np.linspace(0.0, samples.size - 1.0, n), np.arange(samples.size), samples)


# raw traces that preprocess rejects at each rule, with its config, error
# type and the start of the reason
PREPROCESS_FAILURES = {
    "window-too-large": (np.ones(40), PreprocessConfig(smooth_window=41), WindowTooLargeError, "window 41"),
    "flat": (np.zeros(100), PCFG, FlatSignalError, "max 0.0"),
    "too-short": (steps((0, 40), (1, 20), (0, 40)), PCFG, SegmentationFailedError,
                  "active window too short"),
    "not-positive": (steps((0, 20), (5, 5), (-1, 60), (5, 5), (0, 20)), PCFG, SegmentationFailedError,
                     "plateau level is not positive"),
    "no-peak": (steps((0, 20), (1, 80), (0, 20)), PCFG, SegmentationFailedError,
                "no peak exceeds the plateau band"),
    "no-plateau-after": (steps((0, 20), (1, 60), (5, 10), (0, 20)), PCFG, SegmentationFailedError,
                         "no plateau after the unlock peak"),
    "no-plateau-before": (steps((0, 20), (5, 10), (1, 60), (0, 20)), PCFG, SegmentationFailedError,
                          "no plateau before the lock peak"),
    "empty-movement": (steps((0, 20), (1, 30), (5, 4), (1, 3), (5, 4), (1, 30), (0, 20)), PCFG,
                       SegmentationFailedError, "movement phase is empty"),
}


class TestBlockKernel:
    """preprocess_rows against the reference, row by row, over blocks of
    traces of different lengths, in any order, with failures among them."""

    TRACES = TestReferenceKernel.TRACES

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=config_id)
    def test_shuffled_block_same_bits_as_reference(self, cfg):
        order = np.random.default_rng(cfg.smooth_window).permutation(len(self.TRACES))
        block = [self.TRACES[p] for p in order]
        expected = [outcome(reference_preprocess, m, cfg) for m in block]
        assert block_outcomes(*preprocess.preprocess_rows(block, cfg)) == expected

    @pytest.mark.parametrize("kind", PREPROCESS_FAILURES)
    def test_failures_mid_block(self, kind):
        samples, cfg, error, reason = PREPROCESS_FAILURES[kind]
        failing = Manoeuvre(kind, "MJ", 0.0, samples, 100.0)
        expected = outcome(reference_preprocess, failing, cfg)
        assert expected[0] is error and expected[1].startswith(reason)
        # and a flat trace after it, which fails too
        block = [*self.TRACES[:7], failing, *self.TRACES[7:12], Manoeuvre("flat", "MJ", 0.0, np.zeros(64), 100.0),
                 *self.TRACES[12:20]]
        got = block_outcomes(*preprocess.preprocess_rows(block, cfg))
        assert got == [outcome(reference_preprocess, m, cfg) for m in block]
        assert next(row for row in got if isinstance(row[1], str)) == expected

    def test_segmentation_failures_mid_block(self):
        # the kernel's segmentation step over a block of smoothed traces,
        # each rejected window between two that segment
        good = [(s, reference_active_window(s, PCFG))
                for s in (reference_smooth(m.samples, PCFG.smooth_window) for m in self.TRACES[:7])]
        rows = [good[0]]
        for p, (s, active, _) in enumerate(SEGMENTATION_FAILURES.values()):
            rows += [(s, active), good[p + 1]]
        for cfg, rows in [(PCFG, rows),
                          (PreprocessConfig(smooth_window=35), [good[0], (with_peaks(33, 0, 32), (0, 33)), good[1]])]:
            errors, phases = phases_block(rows, cfg)
            got = []
            for (_, (a, b)), error, i, k, level in zip(rows, errors, *phases):
                if error is not None:
                    got.append((type(error), str(error)))
                else:
                    got.append((((a, b), (a, i), (i, k), (k, b)), level.tobytes()))
            assert got == [outcome(reference_segment_phases, s, window, cfg) for s, window in rows]
            assert sum(error is not None for error in errors) == (len(rows) - 1) // 2

    def test_traces_that_start_and_end_on_a_peak(self):
        # every sample of a row's smoothed trace is its own: whatever follows
        # the row in the kernel's buffers stays out of its active window
        block = [Manoeuvre(f"m{n}", "MJ", 0.0, steps((5, 10), (1, n), (5, 10)), 100.0) for n in (80, 60, 70, 40)]
        got = block_outcomes(*preprocess.preprocess_rows(block, PCFG))
        assert got == [outcome(reference_preprocess, m, PCFG) for m in block]
        assert not any(isinstance(row[1], str) for row in got)

    def test_lengths_from_32_to_20000_in_one_block(self):
        base = self.TRACES[5].samples
        lengths = [20_000, 32, 1_000, 33, 127, 128, 129, 4_000, 47, 300, 64, 100]
        block = [Manoeuvre(f"n{n}", "MJ", 0.0, resampled(base, n), 100.0) for n in lengths]
        got = block_outcomes(*preprocess.preprocess_rows(block, PCFG))
        assert got == [outcome(reference_preprocess, m, PCFG) for m in block]
        assert sum(not isinstance(row[1], str) for row in got) >= 8  # most lengths segment

    def test_long_trace_is_a_block_of_its_own(self, monkeypatch):
        long = Manoeuvre("long", "MJ", 0.0, resampled(self.TRACES[5].samples, 200_000), 100.0)
        block = [*self.TRACES[:10], long, *self.TRACES[10:20]]
        alone = [features_of(m).tobytes() for m in block]
        sizes, kernel = [], preprocess._kernel

        def recording(traces, cfg):
            sizes.append([x.size for x in traces])
            return kernel(traces, cfg)

        monkeypatch.setattr(preprocess, "_kernel", recording)
        values, errors = preprocess.preprocess_rows(block, PCFG)
        assert errors == [None] * len(block)
        assert [row.tobytes() for row in values] == alone
        assert [long.samples.size] in sizes
        assert [size for block_sizes in sizes for size in block_sizes] == [m.samples.size for m in block]
        pad = PCFG.smooth_window - 1
        assert all(len(s) * (max(s) + pad) <= preprocess.BLOCK_CELLS for s in sizes if len(s) > 1)


class TestFeatureIo:
    def test_round_trip(self, tmp_path, noisy_cfg):
        ms = [synth.generate_manoeuvre(noisy_cfg, FaultClass.Nominal, 0.0, s, manoeuvre_id=f"m{s}")
              for s in range(3)]
        ids, values, labels = [m.id for m in ms], preprocessed(ms), [None, FaultClass.Nominal, FaultClass.Nominal]
        p = tmp_path / "features.jsonl"
        p.write_text("".join(features_lines(ids, values, labels)))
        back = load_features(p)
        assert len(back) == 3
        for source_id, row, label, (fv, label2) in zip(ids, values, labels, back):
            assert fv.source_id == source_id
            assert label == label2
            assert np.array_equal(row, fv.values)

    def test_bytes_equal_float_list_reference(self):
        values = np.asarray(AWKWARD_FLOATS)
        matrix, labels = np.stack([values, -values[::-1]]), [FaultClass.Obstacle, None]
        reference = "".join(
            json.dumps({
                "source_id": source_id, "values": [float(v) for v in row],
                **({"label": label.name} if label is not None else {}),
            }) + "\n"
            for source_id, row, label in zip("ab", matrix, labels)
        )
        assert "".join(features_lines(["a", "b"], matrix, labels)) == reference

    @pytest.mark.parametrize("ids, labels", [(["a"], [None, None]), (["a", "b", "c"], [None] * 3)])
    def test_text_needs_one_id_and_label_per_row(self, ids, labels):
        with pytest.raises(ValueError):
            "".join(features_lines(ids, np.ones((2, 4)), labels))

    @pytest.mark.parametrize("values", [[], [[]]])
    def test_record_without_values_rejected(self, tmp_path, values):
        # a zero-width row would reach model.init_params as an input width of 0
        good = {"source_id": "ok", "values": [1.0] * 4, "label": "Nominal"}
        empty = {"source_id": "empty-3", "values": values, "label": "Obstacle"}
        for lines, line_number in (([empty, good], 1), ([good, empty], 2)):
            p = tmp_path / "features.jsonl"
            p.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
            with pytest.raises(ParseError, match="no values in features of 'empty-3'") as err:
                load_features(p)
            assert err.value.line_number == line_number

    def test_non_finite_value_rejected(self, tmp_path):
        good = {"source_id": "ok", "values": [1.0] * 4}
        bad = {"source_id": "bad-7", "values": [1.0, float("nan"), 1.0, 1.0]}
        p = tmp_path / "features.jsonl"
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError) as err:
            load_features(p)
        assert err.value.line_number == 2
        assert "bad-7" in str(err.value)

    @pytest.mark.parametrize("bad", ["1.5", True, False])
    def test_values_must_be_numbers(self, tmp_path, bad):
        # as a dataset's samples: np.asarray would read "1.5" as 1.5 and true as 1.0
        good = {"source_id": "ok", "values": [1.0] * 4, "label": "Nominal"}
        p = tmp_path / "features.jsonl"
        bad_record = {**good, "source_id": "bad", "values": [1.0, bad, 1.0, 1.0]}
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad_record) + "\n")
        with pytest.raises(ParseError, match="^line 2: values is not a numeric array$"):
            load_features(p)

    def test_lines_end_at_lf_only(self, tmp_path):
        # U+2028, U+2029 and U+0085 may stand raw in a JSON string, and
        # str.splitlines() breaks lines at each of them
        obj = {"source_id": "m\u2028\u2029\x851", "values": [1.0] * 4, "label": "Nominal"}
        p = tmp_path / "features.jsonl"
        p.write_text(json.dumps(obj, ensure_ascii=False) + "\r\n", encoding="utf-8")
        [(fv, label)] = load_features(p)
        assert fv.source_id == obj["source_id"]
        assert label is FaultClass.Nominal

    def test_stale_aux_key_rejected(self, tmp_path):
        old = {"source_id": "a", "values": [1.0], "aux": {"move_duration_s": 5.0, "peak_ratio": 2.6}}
        p = tmp_path / "features.jsonl"
        p.write_text(json.dumps(old) + "\n")
        with pytest.raises(ParseError):
            load_features(p)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            PreprocessConfig(smooth_window=4)
        with pytest.raises(ValueError):
            PreprocessConfig(active_threshold_frac=1.5)
        with pytest.raises(ValueError):
            PreprocessConfig(feature_length=8)
        with pytest.raises(ValueError):
            PreprocessConfig(plateau_core_frac=0.0)
