"""Wi-Fi RSSI fingerprinting positioning with per-fix error estimation.

The package localizes scans with k-nearest-neighbor fingerprinting and
trains regression models that predict, for every positioning fix, how far
off that fix is likely to be.  Training labels come from leave-fold-out
localization of the calibration survey itself, so no extra ground truth is
needed beyond the survey.
"""

__version__ = "0.1.0"

from .dae import (
    DaeDataset,
    DaeRecord,
    FoldPlan,
    build_dae_dataset,
    build_holdout_dataset,
    make_fold_plan,
    read_dae_dataset,
    true_error,
    write_dae_dataset,
)
from .errors import ConfigError, ContractError, DaeposError, DataError, DatasetError, FormatError, RowError
from .evaluation import EvaluationReport, evaluate_model, summarize
from .pipeline import PipelineConfig, config_hash, load_config, run_pipeline
from .positioning import PositionEstimate, RadioMap, localize, nearest
from .regressors import ErrorRegressor, ModelSpec, fit, fit_arrays, load_model, save_model
from .signatures import (
    ApRegistry,
    Position2D,
    RadioSignature,
    SignatureTable,
    build_registry,
    feature_matrix,
    parse_signatures,
    write_signatures,
)
from .synth import GridSpec, SynthWorld, generate_grid_dataset, perimeter_aps, sample_signature

__all__ = [
    "__version__",
    "ApRegistry",
    "ConfigError",
    "ContractError",
    "DaeDataset",
    "DaeRecord",
    "DaeposError",
    "DataError",
    "DatasetError",
    "ErrorRegressor",
    "EvaluationReport",
    "FoldPlan",
    "FormatError",
    "GridSpec",
    "ModelSpec",
    "PipelineConfig",
    "Position2D",
    "PositionEstimate",
    "RadioMap",
    "RadioSignature",
    "RowError",
    "SignatureTable",
    "SynthWorld",
    "build_dae_dataset",
    "build_holdout_dataset",
    "build_registry",
    "config_hash",
    "evaluate_model",
    "feature_matrix",
    "fit",
    "fit_arrays",
    "generate_grid_dataset",
    "load_config",
    "load_model",
    "localize",
    "make_fold_plan",
    "nearest",
    "parse_signatures",
    "perimeter_aps",
    "read_dae_dataset",
    "run_pipeline",
    "sample_signature",
    "save_model",
    "summarize",
    "true_error",
    "write_dae_dataset",
    "write_signatures",
]
