"""The run config: one JSON object, validated into a RunConfig.

Every key is checked against the config dataclass it fills, unknown keys
are rejected, and every error is a ConfigError, which the CLI exits 2 on.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import conformal, evaluation, model, preprocess, synth
from .core import FaultClass, PmDiagError, TechnologyProfile, json_error, json_is, json_type_error


class ConfigError(PmDiagError):
    """The run configuration is missing, malformed, or invalid."""


DEFAULT_COUNTS = {
    FaultClass.Nominal: 356,
    FaultClass.Obstacle: 274,
    FaultClass.Friction: 355,
    FaultClass.PowerSupply: 125,
}


def counts_obj(counts: "dict[FaultClass, int]") -> dict:
    """Class name to count, in class-code order."""
    return {cls.name: n for cls, n in sorted(counts.items(), key=lambda kv: int(kv[0]))}


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
                "counts": counts_obj(self.counts),
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
