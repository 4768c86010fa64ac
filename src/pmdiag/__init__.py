"""Point-machine power-signal diagnostics toolkit.

Synthetic manoeuvre generation with injectable faults, shape-normalized
feature extraction, MLP fault classification, and split-conformal
prediction sets with a marginal coverage guarantee.
"""

from .conformal import (
    ConformalPredictor,
    Diagnosis,
    aps_score,
    calibrate,
    diagnose,
    predict_set,
)
from .core import (
    Dataset,
    FaultClass,
    Manoeuvre,
    PmDiagError,
    SupplyKind,
    TechnologyProfile,
    load_dataset,
    save_dataset,
    validate_manoeuvre,
)
from .evaluation import (
    MetricsReport,
    SplitSpec,
    binary_metrics,
    coverage_eval,
    split_calibration,
    stratified_split,
)
from .model import (
    MlpModel,
    TrainConfig,
    class_weights,
    forward,
    init_params,
    train,
)
from .preprocess import (
    FeatureVector,
    PhaseSegmentation,
    PreprocessConfig,
    detect_active_window,
    segment_phases,
    smooth,
)
from .synth import (
    DEFAULT_PROFILES,
    FaultSpec,
    SynthConfig,
    generate_dataset,
    generate_nominal,
    inject_fault,
)

__version__ = "0.1.0"

__all__ = [
    "ConformalPredictor",
    "Dataset",
    "DEFAULT_PROFILES",
    "Diagnosis",
    "FaultClass",
    "FaultSpec",
    "FeatureVector",
    "Manoeuvre",
    "MetricsReport",
    "MlpModel",
    "PhaseSegmentation",
    "PmDiagError",
    "PreprocessConfig",
    "SplitSpec",
    "SupplyKind",
    "SynthConfig",
    "TechnologyProfile",
    "TrainConfig",
    "aps_score",
    "binary_metrics",
    "calibrate",
    "class_weights",
    "coverage_eval",
    "detect_active_window",
    "diagnose",
    "forward",
    "generate_dataset",
    "generate_nominal",
    "init_params",
    "inject_fault",
    "load_dataset",
    "predict_set",
    "save_dataset",
    "segment_phases",
    "smooth",
    "split_calibration",
    "stratified_split",
    "train",
    "validate_manoeuvre",
]
