import json

import numpy as np
import pytest

from pmdiag import preprocess, synth
from pmdiag.core import FaultClass, Manoeuvre, ParseError
from pmdiag.preprocess import (
    FeatureVector,
    FlatSignalError,
    PreprocessConfig,
    SegmentationFailedError,
    WindowTooLargeError,
    detect_active_window,
    load_features,
    save_features,
    segment_phases,
    smooth,
)
from pmdiag.synth import FaultSpec, SynthConfig

from conftest import AWKWARD_FLOATS, profile_at_rate

PCFG = PreprocessConfig()


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

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            smooth(np.ones(10), 4)

    def test_length_preserved(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=123)
        assert smooth(x, 5).shape == x.shape


class TestActiveWindow:
    def test_pads_excluded(self, clean_cfg):
        m = synth.generate_nominal(clean_cfg, 3)
        p = synth.nominal_params(clean_cfg)
        s = smooth(m.samples, PCFG.smooth_window)
        a, b = detect_active_window(s, PCFG)
        assert a >= p.n_pad
        assert b <= p.total - p.n_pad

    def test_flat_signal(self):
        with pytest.raises(FlatSignalError):
            detect_active_window(np.zeros(100), PCFG)

    def test_all_above_threshold(self):
        s = np.full(50, 2.0)
        assert detect_active_window(s, PCFG) == (0, 50)


class TestSegmentPhases:
    def seg_for(self, m):
        s = smooth(m.samples, PCFG.smooth_window)
        return segment_phases(s, detect_active_window(s, PCFG), PCFG)

    def test_noiseless_plateau_exact(self, clean_cfg):
        seg = self.seg_for(synth.generate_nominal(clean_cfg, 1))
        assert abs(seg.plateau_level - 3.0) < 1e-9

    def test_boundaries_near_band_crossings(self, clean_cfg):
        # oracle: band rule applied to the raw noiseless curve with the
        # true plateau level
        m = synth.generate_nominal(clean_cfg, 4)
        raw = m.samples
        band = 1.15 * 3.0
        above = np.flatnonzero(raw > band)
        gaps = np.flatnonzero(np.diff(above) > 1)
        unlock_end_true = above[gaps[0]] + 1
        lock_start_true = above[gaps[-1] + 1]
        seg = self.seg_for(m)
        w = PCFG.smooth_window
        assert abs(seg.unlock_peak[1] - unlock_end_true) <= w
        assert abs(seg.lock_peak[0] - lock_start_true) <= w

    def test_phase_ordering_and_partition(self, noisy_cfg):
        for seed in range(20):
            seg = self.seg_for(synth.generate_nominal(noisy_cfg, seed))
            a, b = seg.active
            assert a == seg.unlock_peak[0] < seg.unlock_peak[1]
            assert seg.unlock_peak[1] == seg.movement[0] < seg.movement[1]
            assert seg.movement[1] == seg.lock_peak[0] < seg.lock_peak[1]
            assert seg.lock_peak[1] == b

    def test_friction_plateau(self, clean_cfg):
        m = synth.inject_fault(clean_cfg, FaultSpec(FaultClass.Friction, 0.5), 3)
        seg = self.seg_for(m)
        assert abs(seg.plateau_level - 4.2) / 4.2 < 0.02

    def test_ramp_fails(self):
        s = smooth(np.linspace(0.0, 5.0, 200), 5)
        with pytest.raises(SegmentationFailedError):
            segment_phases(s, detect_active_window(s, PCFG), PCFG)


class TestPreprocess:
    def test_length_and_normalization(self, noisy_cfg):
        fv = preprocess.preprocess(synth.generate_nominal(noisy_cfg, 1), PCFG)
        assert fv.values.shape == (128,)
        assert np.isfinite(fv.values).all()
        assert (fv.values >= 0).all()
        # plateau region sits at ~1.0 after normalization
        assert abs(np.median(fv.values[48:80]) - 1.0) < 0.05

    def test_fixed_length_across_durations(self, mj_profile):
        for move in (2.0, 5.0, 12.0, 20.0):
            prof = profile_at_rate(mj_profile, 100.0)
            prof = type(prof)(prof.name, prof.supply, 100.0, 8.0, 3.0, move)
            cfg = SynthConfig(profile=prof, noise_sigma=0.05)
            fv = preprocess.preprocess(synth.generate_nominal(cfg, 2), PCFG)
            assert fv.values.shape == (128,)

    def test_scale_invariance(self, noisy_cfg):
        for seed in range(10):
            m = synth.generate_nominal(noisy_cfg, seed)
            base = preprocess.preprocess(m, PCFG).values
            for k in (0.5, 0.9, 2.0):
                v = preprocess.preprocess(scaled(m, k), PCFG).values
                assert np.abs(v - base).max() <= 1e-12

    def test_sample_rate_invariance(self, mj_profile):
        # same continuous shape: duration jitter off so segment layouts match
        for seed in range(10):
            cfg100 = SynthConfig(profile=profile_at_rate(mj_profile, 100.0), amplitude_jitter=0.05)
            cfg200 = SynthConfig(profile=profile_at_rate(mj_profile, 200.0), amplitude_jitter=0.05)
            f100 = preprocess.preprocess(synth.generate_nominal(cfg100, seed), PCFG)
            f200 = preprocess.preprocess(synth.generate_nominal(cfg200, seed), PCFG)
            assert np.abs(f100.values - f200.values).max() <= 0.02

    def test_shape_fidelity_vs_analytic_resample(self, clean_cfg, mj_profile):
        # oracle: the same curve sampled at 5 kHz is as good as analytic
        fine_cfg = SynthConfig(profile=profile_at_rate(mj_profile, 5000.0))
        fine = synth.build_curve(synth.nominal_params(fine_cfg))
        above = np.flatnonzero(fine > 0.1 * fine.max())
        a, b = above[0], above[-1]
        grid = a + (b - a) * np.arange(128) / 127.0
        oracle = np.interp(grid, np.arange(fine.size), fine) / 3.0

        fv = preprocess.preprocess(synth.generate_nominal(clean_cfg, 6), PCFG)
        rms = float(np.sqrt(np.mean((fv.values - oracle) ** 2)))
        assert rms <= 0.01

    def test_flat_signal_propagates(self):
        m = Manoeuvre("flat", "MJ", 0.0, np.zeros(100), 100.0)
        with pytest.raises(FlatSignalError):
            preprocess.preprocess(m, PCFG)

    def test_invalid_manoeuvre_rejected(self):
        from pmdiag.core import ValidationError

        m = Manoeuvre("short", "MJ", 0.0, np.ones(8), 100.0)
        with pytest.raises(ValidationError):
            preprocess.preprocess(m, PCFG)


class TestFeatureIo:
    def test_round_trip(self, tmp_path, noisy_cfg):
        ms = [synth.generate_nominal(noisy_cfg, s, manoeuvre_id=f"m{s}") for s in range(3)]
        records = [(preprocess.preprocess(m, PCFG), FaultClass.Nominal if i else None)
                   for i, m in enumerate(ms)]
        p = tmp_path / "features.jsonl"
        save_features(records, p)
        back = load_features(p)
        assert len(back) == 3
        for (fv, label), (fv2, label2) in zip(records, back):
            assert fv.source_id == fv2.source_id
            assert label == label2
            assert np.array_equal(fv.values, fv2.values)

    def test_bytes_equal_float_list_reference(self, tmp_path):
        values = np.asarray(AWKWARD_FLOATS)
        records = [(FeatureVector(values, "a"), FaultClass.Obstacle),
                   (FeatureVector(-values[::-1], "b"), None)]
        reference = "".join(
            json.dumps({
                "source_id": fv.source_id, "values": [float(v) for v in fv.values],
                **({"label": label.name} if label is not None else {}),
            }) + "\n"
            for fv, label in records
        )
        p = tmp_path / "features.jsonl"
        save_features(records, p)
        assert p.read_bytes() == reference.encode("utf-8")

    def test_non_finite_value_rejected(self, tmp_path):
        good = {"source_id": "ok", "values": [1.0] * 4}
        bad = {"source_id": "bad-7", "values": [1.0, float("nan"), 1.0, 1.0]}
        p = tmp_path / "features.jsonl"
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ParseError) as err:
            load_features(p)
        assert err.value.line_number == 2
        assert "bad-7" in str(err.value)

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
