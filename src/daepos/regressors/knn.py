"""k-nearest-neighbors regression over raw dBm feature vectors."""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError
from ..positioning import nearest
from .base import ErrorRegressor, ModelSpec


class KnnModel(ErrorRegressor):
    family = "knn"

    def __init__(self, spec: ModelSpec, train_x: np.ndarray, train_y: np.ndarray, metadata=None):
        if spec.k > len(train_x):
            raise DatasetError(f"k={spec.k} exceeds the {len(train_x)} training records")
        super().__init__(spec, input_width=train_x.shape[1], metadata=metadata)
        self.train_x = np.asarray(train_x, dtype=float)
        self.train_y = np.asarray(train_y, dtype=float)
        self.train_norms = np.einsum("ij,ij->i", self.train_x, self.train_x)  # once for every predict

    def _raw(self, X: np.ndarray) -> np.ndarray:
        # ties resolve toward the lower training index, so predictions are
        # order-deterministic
        indices, _ = nearest(X, self.train_x, self.spec.k, norms=self.train_norms)
        return self.train_y[indices].mean(axis=1)


def fit_knn(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> KnnModel:
    return KnnModel(spec, train_x=X.copy(), train_y=y.copy())
