"""Shared fit/predict contract for the error regressors.

Every family (linear, knn, forest, network) is trained on feature vectors
paired with true positioning errors and predicts an error estimate in
meters.  Estimates are distances, so the public ``predict`` clamps raw
model outputs at zero; ``predict_raw`` keeps the signed diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ContractError

MODEL_FAMILIES = ("linear", "knn", "forest", "network")

# Bound of ``trees`` and ``epochs``: far above the paper's 300 trees and 200
# epochs, and below what makes a fit overflow numpy's sizes or never end.
COUNT_MAX = 10**6


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelSpec:
    """Family choice plus every tunable the families expose.

    Only the fields relevant to ``family`` are used: ``k`` for knn;
    ``trees`` for the forest; ``layers`` and ``epochs`` for the network.
    """

    family: str
    k: int = 4
    trees: int = 100
    layers: tuple[int, ...] = (128, 128, 128)
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}; expected one of {MODEL_FAMILIES}")
        for name in ("k", "trees", "epochs", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.layers, (list, tuple)) or not all(_is_int(w) for w in self.layers):
            raise ConfigError(f"layers must be a list of integer widths, got {self.layers!r}")
        object.__setattr__(self, "layers", tuple(self.layers))
        for name in ("trees", "epochs"):
            if getattr(self, name) > COUNT_MAX:
                raise ConfigError(f"{name} must be at most {COUNT_MAX}, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError("model seed must be non-negative")
        if self.family == "knn" and self.k < 1:
            raise ConfigError(f"knn needs k >= 1, got {self.k}")
        if self.family == "forest" and self.trees < 1:
            raise ConfigError(f"forest needs at least one tree, got {self.trees}")
        if self.family == "network":
            if not self.layers or any(w < 1 for w in self.layers):
                raise ConfigError(f"network needs non-empty positive layer widths, got {self.layers}")
            if self.epochs < 1:
                raise ConfigError(f"network needs at least one epoch, got {self.epochs}")

    def params_text(self) -> str:
        """Human-readable parameter summary for report rows."""
        if self.family == "knn":
            return f"k={self.k}"
        if self.family == "forest":
            return f"trees={self.trees}"
        if self.family == "network":
            return str(list(self.layers))
        return "-"

    def default_label(self) -> str:
        return {"linear": "LR", "knn": "kNN", "forest": "RF", "network": "NN"}[self.family]


class ErrorRegressor:
    """Base class: width-checked prediction with clamping at zero."""

    family = "base"

    def __init__(self, spec: ModelSpec, input_width: int, metadata: dict | None = None):
        self.spec = spec
        self.input_width = int(input_width)
        self.metadata = dict(metadata or {})

    def _raw(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _as_matrix(self, features) -> tuple[np.ndarray, bool]:
        X = np.asarray(features, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.input_width:
            raise ContractError(
                f"feature width mismatch: model expects {self.input_width}, got {X.shape[-1]}"
            )
        if not np.isfinite(X).all():
            raise ContractError("features contain non-finite values")
        return X, single

    def predict_raw(self, features):
        """Unclamped model output; may be negative."""
        X, single = self._as_matrix(features)
        out = self._raw(X)
        return float(out[0]) if single else out

    def predict(self, features):
        """Estimated positioning error in meters, clamped at zero."""
        X, single = self._as_matrix(features)
        out = np.maximum(self._raw(X), 0.0)
        return float(out[0]) if single else out
