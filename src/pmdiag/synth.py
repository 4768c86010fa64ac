"""Deterministic generator of nominal and faulty point-machine manoeuvres.

Every trace carries the three-phase power signature: an unlock current peak,
a movement plateau, and a lock peak, built from raised-cosine segments so the
curve is continuously differentiable and every phase has compact support.
Faults deform one specific aspect of that signature:

* Obstacle      - additive bump inside the movement plateau
* Friction      - elevated plateau over the whole movement phase
* PowerSupply   - global amplitude sag plus a slow supply ripple
* Misalignment  - widened, attenuated lock peak and a stretched movement

Generation is pure given a seed; per-manoeuvre sub-streams are spawned from
(seed, index) so datasets are reproducible independent of scheduling.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import (
    Dataset,
    FaultClass,
    Manoeuvre,
    SupplyKind,
    TechnologyProfile,
    sha256_of_obj,
)

# Idle time prepended and appended to every trace, in seconds.
PAD_SECONDS = 0.5

# Lock peak amplitude as a fraction of the unlock peak.
LOCK_PEAK_RATIO = 0.9

# Characteristic supply-instability frequency in Hz. The PowerSupply ripple
# runs at twice this. Kept well below the feature Nyquist rate so the ripple
# survives smoothing and 128-point resampling.
SUPPLY_RIPPLE_HZ = {SupplyKind.AC: 0.25, SupplyKind.DC: 0.4}

DEFAULT_PROFILES = {
    "MJ": TechnologyProfile("MJ", SupplyKind.AC, 100.0, 8.0, 3.0, 5.0),
    "P80": TechnologyProfile("P80", SupplyKind.DC, 100.0, 6.0, 2.5, 6.0),
    "EbiSwitch": TechnologyProfile("EbiSwitch", SupplyKind.AC, 100.0, 5.0, 2.0, 4.0),
}


@dataclass(frozen=True)
class SynthConfig:
    """Generation parameters for one technology."""

    profile: TechnologyProfile
    unlock_peak_duration: float = 0.8
    lock_peak_duration: float = 0.8
    noise_sigma: float = 0.0
    amplitude_jitter: float = 0.0
    duration_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.unlock_peak_duration <= 0 or self.lock_peak_duration <= 0:
            raise ValueError("peak durations must be positive")
        if self.unlock_peak_duration + self.lock_peak_duration >= 2 * self.profile.move_duration:
            raise ValueError("peak durations too long for the movement")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        for name in ("amplitude_jitter", "duration_jitter"):
            v = getattr(self, name)
            if not 0 <= v < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class CurveParams:
    """Integer-sample layout of one noiseless trace."""

    sample_rate: float
    n_pad: int
    n_rise: int
    n_fall: int
    n_move: int
    n_lock_rise: int
    n_lock_fall: int
    a_peak: float
    a_plat: float
    a_lock: float

    @property
    def move_start(self) -> int:
        return self.n_pad + self.n_rise + self.n_fall

    @property
    def move_end(self) -> int:
        return self.move_start + self.n_move

    @property
    def lock_support(self) -> tuple[int, int]:
        return self.move_end, self.move_end + self.n_lock_rise + self.n_lock_fall

    @property
    def total(self) -> int:
        return self.move_end + self.n_lock_rise + self.n_lock_fall + self.n_pad


def _n_samples(duration_s: float, fs: float) -> int:
    return max(1, round(duration_s * fs))


def nominal_params(cfg: SynthConfig, amp_scale: float = 1.0, dur_scale: float = 1.0) -> CurveParams:
    """Sample layout for a nominal trace under the given jitter scales."""
    fs = cfg.profile.sample_rate
    a_peak = cfg.profile.nominal_peak_amps * amp_scale
    a_plat = cfg.profile.plateau_amps * amp_scale
    return CurveParams(
        sample_rate=fs,
        n_pad=_n_samples(PAD_SECONDS, fs),
        n_rise=_n_samples(cfg.unlock_peak_duration * dur_scale / 2, fs),
        n_fall=_n_samples(cfg.unlock_peak_duration * dur_scale / 2, fs),
        n_move=_n_samples(cfg.profile.move_duration * dur_scale, fs),
        n_lock_rise=_n_samples(cfg.lock_peak_duration * dur_scale / 2, fs),
        n_lock_fall=_n_samples(cfg.lock_peak_duration * dur_scale / 2, fs),
        a_peak=a_peak,
        a_plat=a_plat,
        a_lock=LOCK_PEAK_RATIO * a_peak,
    )


def build_curve(p: CurveParams) -> np.ndarray:
    """Noiseless trace for a sample layout.

    Raised-cosine segments join with zero slope, so the apex hits a_peak
    exactly and the unlock fall lands exactly on a_plat.
    """

    def seg(n: int, start: float, end: float) -> np.ndarray:
        return start + (end - start) * _ease(n)

    parts = [
        np.zeros(p.n_pad),
        seg(p.n_rise, 0.0, p.a_peak),
        seg(p.n_fall, p.a_peak, p.a_plat),
        np.full(p.n_move, p.a_plat),
        seg(p.n_lock_rise, p.a_plat, p.a_lock),
        seg(p.n_lock_fall, p.a_lock, 0.0),
        np.zeros(p.n_pad),
    ]
    return np.concatenate(parts)


@functools.lru_cache(maxsize=256)
def _ease(n: int) -> np.ndarray:
    """The half-cosine ease of n samples from 0 to 1, read-only; cos(pi*n/n)
    = -1 exactly, so the last sample is exactly 1. Cached: every trace
    takes four, of a few lengths."""
    j = np.arange(1, n + 1, dtype=np.float64)
    w = (1.0 - np.cos(np.pi * j / n)) / 2.0
    w.flags.writeable = False
    return w


def generate_manoeuvre(
    cfg: SynthConfig,
    label: FaultClass,
    severity: float,
    seed: "int | np.random.SeedSequence",
    *,
    manoeuvre_id: str | None = None,
    timestamp: float = 0.0,
) -> Manoeuvre:
    """One manoeuvre of class `label` at fault severity `severity` in [0, 1];
    bit-identical for a given seed.

    The seed spawns a jitter, a noise and a fault stream. Every class draws
    its jitter and noise alike, so a faulty trace differs from the Nominal
    trace of the same seed only by its deformation (and by length, for
    Misalignment). A Nominal trace does not read `severity`. The PowerSupply
    ripple is phase-locked to the start of the trace: the supply sag
    oscillation responds to the load step, so its phase is not free.
    """
    if not 0 <= severity <= 1:
        raise ValueError("severity must be in [0, 1]")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    jitter_ss, noise_ss, fault_ss = seed.spawn(3)
    jitter = np.random.default_rng(jitter_ss)
    amp_scale = 1.0 + jitter.uniform(-cfg.amplitude_jitter, cfg.amplitude_jitter)
    dur_scale = 1.0 + jitter.uniform(-cfg.duration_jitter, cfg.duration_jitter)
    params = nominal_params(cfg, amp_scale, dur_scale)
    s = severity

    if label == FaultClass.Misalignment:
        lock_widen = 1.0 + 2.0 * s
        params = replace(
            params,
            n_lock_rise=max(1, round(params.n_lock_rise * lock_widen)),
            n_lock_fall=max(1, round(params.n_lock_fall * lock_widen)),
            a_lock=params.a_lock * (1.0 - 0.3 * s),
            n_move=params.n_move + round(0.2 * s * params.n_move),
        )
    curve = build_curve(params)
    if label == FaultClass.Obstacle:
        width = max(1, round((0.05 + 0.15 * s) * params.n_move))
        center_frac = np.random.default_rng(fault_ss).uniform(0.1, 0.9)
        center = params.move_start + center_frac * params.n_move
        start = int(round(center - width / 2))
        start = min(max(start, params.move_start), params.move_end - width)
        amp = (0.5 + 1.5 * s) * params.a_plat
        j = np.arange(width, dtype=np.float64)
        bump = amp * (1.0 - np.cos(2.0 * np.pi * j / max(width - 1, 1))) / 2.0
        curve[start : start + width] += bump
    elif label == FaultClass.Friction:
        curve[params.move_start : params.move_end] *= 1.0 + 0.2 + 0.4 * s
    elif label == FaultClass.PowerSupply:
        ripple_hz = 2.0 * SUPPLY_RIPPLE_HZ[cfg.profile.supply]
        t = np.arange(curve.size, dtype=np.float64) / cfg.profile.sample_rate
        scale = 1.0 - 0.2 - 0.3 * s
        ripple = 0.05 * s * np.sin(2.0 * np.pi * ripple_hz * t)
        curve = curve * scale * (1.0 + ripple)

    if cfg.noise_sigma > 0:
        curve = curve + np.random.default_rng(noise_ss).normal(0.0, cfg.noise_sigma, size=curve.shape)
    return Manoeuvre(
        id=f"synth-{label.name}-0" if manoeuvre_id is None else manoeuvre_id,
        technology=cfg.profile.name,
        timestamp=timestamp,
        samples=curve,
        sample_rate=cfg.profile.sample_rate,
        label=label,
    )


@dataclass(frozen=True, eq=False)
class DatasetPlan:
    """Everything `generate_dataset` draws before its first trace.

    Manoeuvre i of the plan is the j-th of its class, classes in code order;
    it is seeded by child i of the `root` seed sequence and, if faulty, has
    severity severities[i]. `order` is the seeded shuffle: position p of the
    dataset holds plan manoeuvre order[p]. Each manoeuvre depends on its own
    seed alone, so any set of positions can be generated apart, by any
    process, bit for bit, and generating one twice gives it twice.
    """

    cfg: SynthConfig
    plan: tuple
    root: np.random.SeedSequence
    severities: np.ndarray
    order: np.ndarray
    provenance: str

    def __len__(self) -> int:
        return len(self.plan)

    def manoeuvre(self, position: int) -> Manoeuvre:
        """The manoeuvre at `position` of the dataset."""
        i = int(self.order[position])
        cls, j = self.plan[i]
        return generate_manoeuvre(self.cfg, cls, float(self.severities[i]), _child_seed(self.root, i),
                                  manoeuvre_id=f"synth-{cls.name}-{j}", timestamp=60.0 * i)

    def manoeuvres(self):
        """The manoeuvres of the dataset in order, each generated as it is taken."""
        return map(self.manoeuvre, range(len(self)))


def _child_seed(root: np.random.SeedSequence, i: int) -> np.random.SeedSequence:
    """Child i of `root`, as the i-th child `root.spawn` gives, without
    counting it as spawned."""
    return np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, i), pool_size=root.pool_size)


def plan_dataset(
    counts: dict[FaultClass, int],
    cfg: SynthConfig,
    severity_range: tuple[float, float] = (0.3, 1.0),
) -> DatasetPlan:
    """The plan of `generate_dataset(counts, cfg, severity_range)`."""
    lo, hi = severity_range
    if not (0 <= lo <= hi <= 1):
        raise ValueError("severity_range must satisfy 0 <= lo <= hi <= 1")
    for cls, n in counts.items():
        if n < 0:
            raise ValueError(f"negative count for {cls.name}")

    plan: list[tuple[FaultClass, int]] = []
    for cls in sorted(counts, key=int):
        plan.extend((cls, j) for j in range(counts[cls]))
    total = len(plan)

    root = np.random.SeedSequence(cfg.seed)
    provenance = "synth:" + sha256_of_obj(
        {
            "counts": {cls.name: counts[cls] for cls in sorted(counts, key=int)},
            "config": asdict(cfg),
            "severity_range": [lo, hi],
            "seed": cfg.seed,
        }
    )[:16]
    return DatasetPlan(
        cfg=cfg,
        plan=tuple(plan),
        root=root,
        severities=np.random.default_rng(_child_seed(root, total)).uniform(lo, hi, size=total),
        order=np.random.default_rng(_child_seed(root, total + 1)).permutation(total),
        provenance=provenance,
    )


def generate_dataset(
    counts: dict[FaultClass, int],
    cfg: SynthConfig,
    severity_range: tuple[float, float] = (0.3, 1.0),
) -> Dataset:
    """Generate a labelled dataset with exactly the requested per-class counts.

    Manoeuvre ids are "synth-{class}-{index}"; the output order is a shuffle
    seeded by cfg.seed. Fault severities are uniform in severity_range.
    """
    plan = plan_dataset(counts, cfg, severity_range)
    return Dataset(manoeuvres=tuple(plan.manoeuvres()), provenance=plan.provenance)
