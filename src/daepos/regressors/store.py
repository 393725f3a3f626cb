"""Versioned model files.

A model is stored as an npz archive: a JSON metadata entry (format version,
family, spec, fitted flags, optional training context such as the feature
column names) plus the fitted arrays in raw binary, so loading reproduces
predictions bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from ..errors import FormatError
from .base import ErrorRegressor, ModelSpec
from .forest import ForestModel, Tree
from .knn import KnnModel
from .linear import LinearModel
from .network import NetworkModel

FORMAT_VERSION = 1


def _spec_to_jsonable(spec: ModelSpec) -> dict:
    d = dataclasses.asdict(spec)
    d["layers"] = list(d["layers"])
    return d


def _spec_from_jsonable(d: dict) -> ModelSpec:
    d = dict(d)
    d["layers"] = tuple(d["layers"])
    return ModelSpec(**d)


def save_model(model: ErrorRegressor, dest, context: dict | None = None) -> None:
    """Write ``model`` to ``dest`` (path or binary stream)."""
    meta = {
        "format_version": FORMAT_VERSION,
        "family": model.family,
        "spec": _spec_to_jsonable(model.spec),
        "input_width": model.input_width,
        "metadata": model.metadata,
        "context": context or model.metadata.get("context") or {},
    }
    arrays = {"meta_json": np.array(json.dumps(meta, sort_keys=True))}

    if isinstance(model, LinearModel):
        arrays["coef"] = model.coef
        arrays["intercept"] = np.array(model.intercept)
    elif isinstance(model, KnnModel):
        arrays["train_x"] = model.train_x
        arrays["train_y"] = model.train_y
    elif isinstance(model, ForestModel):
        arrays["offsets"] = np.cumsum([0] + [t.n_nodes for t in model.trees]).astype(np.int64)
        for name in ("feature", "threshold", "left", "right", "value"):
            arrays[name] = np.concatenate([getattr(t, name) for t in model.trees])
        arrays["bootstrap"] = np.stack([t.bootstrap_indices for t in model.trees])
    elif isinstance(model, NetworkModel):
        arrays["scaler_mean"] = model.scaler_mean
        arrays["scaler_std"] = model.scaler_std
        for key, val in model.params.items():
            arrays[f"param_{key}"] = val
        for key, val in model.running.items():
            arrays[f"running_{key}"] = val
    else:
        raise FormatError(f"cannot serialize model family {model.family!r}")

    if hasattr(dest, "write"):
        np.savez_compressed(dest, **arrays)
    else:
        with open(os.fspath(dest), "wb") as f:
            np.savez_compressed(f, **arrays)


def _check_forest(arrays: dict, input_width: int) -> None:
    """Reject forest arrays that ``Tree.predict`` would index out of range or loop on.

    Every split node's children must come after it and inside its own tree
    (which ``_fit_tree`` guarantees), so each descent ends at a leaf.
    """
    offsets, feature = arrays["offsets"], arrays["feature"]
    n_total = len(feature)
    integer_arrays = ("offsets", "feature", "left", "right")
    if not all(np.issubdtype(arrays[name].dtype, np.integer) for name in integer_arrays):
        raise FormatError("forest offsets, feature indices and child links must be integers")
    if offsets.ndim != 1 or len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != n_total:
        raise FormatError(f"forest offsets must run from 0 to the node count {n_total}")
    sizes = np.diff(offsets)
    if (sizes <= 0).any():
        raise FormatError("forest offsets must be increasing")
    if any(arrays[name].shape != (n_total,) for name in ("feature", "threshold", "left", "right", "value")):
        raise FormatError("forest node arrays must all have one entry per node")
    if len(arrays["bootstrap"]) != len(sizes):
        raise FormatError("forest archive needs one bootstrap sample per tree")
    split = feature >= 0
    if (feature[split] >= input_width).any():
        raise FormatError(f"forest feature index out of range for input width {input_width}")
    node = (np.arange(n_total) - np.repeat(offsets[:-1], sizes))[split]
    tree_size = np.repeat(sizes, sizes)[split]
    for name in ("left", "right"):
        child = arrays[name][split]
        if not ((node < child) & (child < tree_size)).all():
            raise FormatError(f"forest {name} links must point to a later node of the same tree")


def load_model(source) -> ErrorRegressor:
    """Load a model written by :func:`save_model`.

    The training context (if any) is available as ``model.metadata["context"]``.
    """
    with np.load(source, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    if "meta_json" not in arrays:
        raise FormatError("not a model file: missing metadata entry")
    meta = json.loads(str(arrays["meta_json"]))
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported model format version {version!r}")

    spec = _spec_from_jsonable(meta["spec"])
    metadata = dict(meta.get("metadata") or {})
    metadata["context"] = meta.get("context") or {}
    family = meta["family"]

    if family == "linear":
        return LinearModel(spec, coef=arrays["coef"], intercept=float(arrays["intercept"]), metadata=metadata)
    if family == "knn":
        return KnnModel(spec, train_x=arrays["train_x"], train_y=arrays["train_y"], metadata=metadata)
    if family == "forest":
        _check_forest(arrays, meta["input_width"])
        offsets = arrays["offsets"]
        trees = []
        for t in range(len(offsets) - 1):
            lo, hi = offsets[t], offsets[t + 1]
            trees.append(
                Tree(
                    feature=arrays["feature"][lo:hi],
                    threshold=arrays["threshold"][lo:hi],
                    left=arrays["left"][lo:hi],
                    right=arrays["right"][lo:hi],
                    value=arrays["value"][lo:hi],
                    bootstrap_indices=arrays["bootstrap"][t],
                )
            )
        return ForestModel(spec, trees=trees, input_width=meta["input_width"], metadata=metadata)
    if family == "network":
        params = {k[len("param_") :]: v for k, v in arrays.items() if k.startswith("param_")}
        running = {k[len("running_") :]: v for k, v in arrays.items() if k.startswith("running_")}
        return NetworkModel(
            spec,
            params=params,
            running=running,
            scaler_mean=arrays["scaler_mean"],
            scaler_std=arrays["scaler_std"],
            input_width=meta["input_width"],
            metadata=metadata,
        )
    raise FormatError(f"unknown model family {family!r} in file")
