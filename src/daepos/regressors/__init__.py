"""Error regressors: four families behind one fit/predict contract."""

from __future__ import annotations

import numpy as np

from ..dae import DaeDataset
from ..errors import ContractError, DatasetError
from .base import MODEL_FAMILIES, ErrorRegressor, ModelSpec
from .forest import ForestModel, fit_forest
from .knn import KnnModel, fit_knn
from .linear import LinearModel, fit_linear
from .network import NetworkModel, fit_network
from .store import load_model, save_model

__all__ = [
    "MODEL_FAMILIES",
    "ModelSpec",
    "ErrorRegressor",
    "LinearModel",
    "KnnModel",
    "ForestModel",
    "NetworkModel",
    "fit",
    "fit_arrays",
    "save_model",
    "load_model",
]

_FITTERS = {
    "linear": fit_linear,
    "knn": fit_knn,
    "forest": fit_forest,
    "network": fit_network,
}


def fit_arrays(spec: ModelSpec, X, y) -> ErrorRegressor:
    """Fit the family chosen by ``spec`` on a feature matrix and labels."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise DatasetError(f"training features must be a non-empty (n, width) matrix, got {X.shape}")
    if y.shape != (len(X),):
        raise DatasetError(f"labels must be one per training row, got {y.shape} for {len(X)} rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ContractError("training features and labels must be finite")
    return _FITTERS[spec.family](spec, X, y)


def fit(spec: ModelSpec, dataset: DaeDataset) -> ErrorRegressor:
    """Fit on an error-regression dataset; the model's context names its AP columns and variant."""
    model = fit_arrays(spec, dataset.features(), dataset.labels())
    model.metadata["context"] = {"ap_ids": list(dataset.registry.aps), "variant": dataset.variant}
    return model
