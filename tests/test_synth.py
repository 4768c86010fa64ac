import json
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from pmdiag import preprocess, synth
from pmdiag.core import FaultClass
from pmdiag.synth import SynthConfig

from conftest import MJ_COUNTS


def active_window(samples, frac=0.1):
    # threshold rule applied directly to raw samples (construction oracle)
    above = np.flatnonzero(samples > frac * samples.max())
    return int(above[0]), int(above[-1]) + 1


class TestNominal:
    def test_noiseless_peak_and_plateau(self, clean_cfg):
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 1)
        assert abs(m.samples.max() - 8.0) < 1e-9
        a, b = active_window(m.samples)
        n = b - a
        mid = m.samples[a + n // 4 : b - n // 4]
        assert abs(np.median(mid) - 3.0) < 1e-9
        assert m.label is FaultClass.Nominal

    def test_three_phase_shape(self, clean_cfg):
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 2)
        p = synth.nominal_params(clean_cfg)
        lock = m.samples[p.lock_support[0] : p.lock_support[1]]
        assert lock.max() >= 0.8 * 8.0
        assert m.samples[-1] == 0.0 and m.samples[0] == 0.0

    def test_curve_is_a_fresh_writeable_array(self, clean_cfg):
        # the ramps are cached read-only; generate_manoeuvre edits the curve in place
        params = synth.nominal_params(clean_cfg)
        curve = synth.build_curve(params)
        first = curve.copy()
        curve += 1.0
        assert np.array_equal(synth.build_curve(params), first)

    def test_deterministic(self, clean_cfg):
        a = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 42)
        b = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 42)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("cls", [FaultClass.Nominal, FaultClass.Misalignment], ids=lambda cls: cls.name)
    def test_seed_sequence_passed_twice_gives_the_int_seeds_trace(self, noisy_cfg, cls):
        # the streams are the sequence's children, not ones it counts as spawned
        seed = np.random.SeedSequence(5)
        expected = synth.generate_manoeuvre(noisy_cfg, cls, 0.6, 5).samples
        for _ in range(2):
            assert np.array_equal(synth.generate_manoeuvre(noisy_cfg, cls, 0.6, seed).samples, expected)

    def test_segmenter_recovers_plateau_under_noise(self, mj_profile):
        cfg = SynthConfig(profile=mj_profile, noise_sigma=0.05)
        traces = [synth.generate_manoeuvre(cfg, FaultClass.Nominal, 0.0, seed).samples for seed in range(100)]
        block = preprocess._kernel(traces, preprocess.PreprocessConfig())
        assert block.errors == [None] * 100
        _, _, plateau_level = block.phases
        assert (abs(plateau_level - 3.0) / 3.0 < 0.02).all()


class TestInjectFault:
    def test_obstacle_bump(self, clean_cfg):
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.Obstacle, 1.0, 5)
        twin = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 5)
        p = synth.nominal_params(clean_cfg)
        unlock_diff = np.abs(m.samples[: p.move_start] - twin.samples[: p.move_start]).max()
        assert unlock_diff < 1e-9
        assert m.samples[p.move_start : p.move_end].max() >= 2.0 * p.a_plat
        assert m.label is FaultClass.Obstacle

    def test_friction_plateau_factor(self, clean_cfg):
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.Friction, 0.5, 3)
        p = synth.nominal_params(clean_cfg)
        med = np.median(m.samples[p.move_start : p.move_end])
        assert abs(med - 1.4 * p.a_plat) < 1e-9

    def test_power_supply_scale_and_ripple(self, clean_cfg):
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.PowerSupply, 1.0, 6)
        twin = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 6)
        ripple_amp = 0.05 * 0.5 * twin.samples.max()
        assert abs(m.samples.max() - 0.5 * twin.samples.max()) <= ripple_amp

    def test_misalignment_widens_and_attenuates_lock(self, clean_cfg):
        m = synth.generate_manoeuvre(clean_cfg, FaultClass.Misalignment, 1.0, 7)
        twin = synth.generate_manoeuvre(clean_cfg, FaultClass.Nominal, 0.0, 7)
        p = synth.nominal_params(clean_cfg)
        assert len(m.samples) > len(twin.samples)
        # lock peak max attenuated by 0.3 at severity 1
        assert abs(m.samples.max() - 8.0) < 1e-9  # unlock peak untouched
        lock_max = m.samples[p.move_end :].max()
        assert abs(lock_max - 0.7 * p.a_lock) < 1e-9

    def test_severity_range_checked(self, clean_cfg):
        with pytest.raises(ValueError):
            synth.generate_manoeuvre(clean_cfg, FaultClass.Obstacle, 1.5, 0)

    def test_label_soundness(self, noisy_cfg):
        for cls in (FaultClass.Obstacle, FaultClass.Friction,
                    FaultClass.PowerSupply, FaultClass.Misalignment):
            m = synth.generate_manoeuvre(noisy_cfg, cls, 0.7, 11)
            assert m.label is cls


class TestSeparability:
    def test_fault_differs_from_same_seed_twin(self, mj_profile):
        # noise_sigma at the 0.05 * plateau limit, severity at the 0.3 floor
        sigma = 0.05 * 3.0
        cfg = SynthConfig(profile=mj_profile, noise_sigma=sigma, amplitude_jitter=0.05)
        p = synth.nominal_params(cfg)
        regions = {
            FaultClass.Obstacle: (p.move_start, p.move_end),
            FaultClass.Friction: (p.move_start, p.move_end),
            FaultClass.PowerSupply: (p.n_pad, p.total - p.n_pad),
            FaultClass.Misalignment: (p.lock_support[0], p.lock_support[1]),
        }
        for seed in range(10):
            twin = synth.generate_manoeuvre(cfg, FaultClass.Nominal, 0.0, seed)
            for cls, (lo, hi) in regions.items():
                m = synth.generate_manoeuvre(cfg, cls, 0.3, seed)
                n = min(len(m.samples), len(twin.samples))
                hi = min(hi, n)
                diff = np.abs(m.samples[lo:hi] - twin.samples[lo:hi]).max()
                assert diff >= 3.0 * sigma, f"{cls.name} seed {seed}: {diff}"


class TestGenerateDataset:
    def test_mj_counts(self, noisy_cfg):
        ds = synth.generate_dataset(MJ_COUNTS, replace(noisy_cfg, seed=1), (0.3, 1.0))
        assert len(ds) == 1110
        assert Counter(m.label for m in ds) == MJ_COUNTS

    def test_p80_counts(self, mj_profile):
        counts = {
            FaultClass.Nominal: 263,
            FaultClass.Obstacle: 503,
            FaultClass.PowerSupply: 164,
            FaultClass.Misalignment: 203,
        }
        cfg = SynthConfig(profile=synth.DEFAULT_PROFILES["P80"], noise_sigma=0.05)
        ds = synth.generate_dataset(counts, replace(cfg, seed=2), (0.3, 1.0))
        assert len(ds) == 1133
        assert Counter(m.label for m in ds) == counts

    def test_empty(self, noisy_cfg):
        ds = synth.generate_dataset({}, noisy_cfg)
        assert len(ds) == 0

    def test_ids_and_labels_consistent(self, noisy_cfg):
        counts = {FaultClass.Nominal: 5, FaultClass.Friction: 4}
        ds = synth.generate_dataset(counts, replace(noisy_cfg, seed=3))
        for m in ds:
            cls_name = m.id.split("-")[1]
            assert m.label is FaultClass.from_name(cls_name)
        assert sorted(m.id for m in ds if m.label is FaultClass.Friction) == [
            f"synth-Friction-{j}" for j in range(4)
        ]

    def test_deterministic_serialization(self, tmp_path, noisy_cfg):
        from pmdiag.core import save_dataset

        counts = {FaultClass.Nominal: 8, FaultClass.Obstacle: 6, FaultClass.PowerSupply: 5}
        a = synth.generate_dataset(counts, replace(noisy_cfg, seed=4), (0.3, 1.0))
        b = synth.generate_dataset(counts, replace(noisy_cfg, seed=4), (0.3, 1.0))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(a, pa)
        save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_order_is_shuffled(self, noisy_cfg):
        counts = {FaultClass.Nominal: 10, FaultClass.Obstacle: 10}
        ds = synth.generate_dataset(counts, replace(noisy_cfg, seed=5))
        labels = [m.label for m in ds]
        assert labels != sorted(labels, key=int)

    def test_plan_positions_in_any_order(self, noisy_cfg):
        # pipeline's processes each generate some positions of one plan
        counts = {FaultClass.Nominal: 6, FaultClass.Obstacle: 5, FaultClass.Misalignment: 4}
        cfg = replace(noisy_cfg, seed=6)
        ds = synth.generate_dataset(counts, cfg)
        plan = synth.plan_dataset(counts, cfg)
        backwards = [plan.manoeuvre(p) for p in reversed(range(len(plan)))]
        assert backwards[::-1] == list(ds)
        # a position generated again is the same manoeuvre
        assert plan.manoeuvre(3) == ds.manoeuvres[3]
        assert list(plan.manoeuvres()) == list(ds)
        assert plan.provenance == ds.provenance

    def test_bad_severity_range(self, noisy_cfg):
        with pytest.raises(ValueError):
            synth.generate_dataset({FaultClass.Nominal: 1}, noisy_cfg, (0.9, 0.1))


class TestSynthConfig:
    def test_invariants(self, mj_profile):
        with pytest.raises(ValueError):
            SynthConfig(profile=mj_profile, unlock_peak_duration=0.0)
        with pytest.raises(ValueError):
            SynthConfig(profile=mj_profile, unlock_peak_duration=6.0, lock_peak_duration=6.0)
        with pytest.raises(ValueError):
            SynthConfig(profile=mj_profile, noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(profile=mj_profile, amplitude_jitter=1.0)

    def test_config_serializes(self, noisy_cfg):
        obj = json.loads(json.dumps(asdict(noisy_cfg)))
        assert obj["profile"]["supply"] == "AC"
