"""Versioned model files.

A model is stored as an npz archive: a JSON metadata entry (format version,
spec, input width, and the model's ``metadata`` with its training context, if
any) plus the fitted arrays in raw binary, so loading reproduces predictions
bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
import zlib

import numpy as np

from ..dae import VARIANTS, feature_names
from ..errors import ConfigError, DatasetError, FormatError
from .base import ErrorRegressor, ModelSpec
from .forest import ForestModel, Nodes
from .knn import KnnModel
from .linear import LinearModel
from .network import NetworkModel, param_shapes, running_shapes

FORMAT_VERSION = 4


def save_model(model: ErrorRegressor, dest) -> None:
    """Write ``model`` to ``dest`` (path or binary stream)."""
    meta = {
        "format_version": FORMAT_VERSION,
        "spec": dataclasses.asdict(model.spec),
        "input_width": model.input_width,
        "metadata": model.metadata,
    }
    arrays = {"meta_json": np.array(json.dumps(meta, sort_keys=True))}

    if isinstance(model, LinearModel):
        arrays["coef"] = model.coef
        arrays["intercept"] = np.array(model.intercept)
    elif isinstance(model, KnnModel):
        arrays["train_x"] = model.train_x
        arrays["train_y"] = model.train_y
    elif isinstance(model, ForestModel):
        arrays.update(offsets=model.offsets, **model.nodes._asdict())
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
    """Reject forest arrays that the traversal would index out of range or loop on.

    Every split node's children must come after it and inside its own tree
    (which ``_fit_tree`` guarantees), so each descent ends at a leaf.
    """
    offsets, feature = arrays["offsets"], arrays["feature"]
    n_total = len(feature)
    integer_arrays = ("offsets", "feature", "left", "right")
    if not all(np.issubdtype(arrays[name].dtype, np.integer) for name in integer_arrays):
        raise FormatError("forest offsets, feature indices and child links must be integers")
    if len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != n_total:
        raise FormatError(f"forest offsets must run from 0 to the node count {n_total}")
    sizes = np.diff(offsets)
    if (sizes <= 0).any():
        raise FormatError("forest offsets must be increasing")
    if any(arrays[name].shape != (n_total,) for name in Nodes._fields):
        raise FormatError("forest node arrays must all have one entry per node")
    split = feature >= 0
    if (feature[split] >= input_width).any():
        raise FormatError(f"forest feature index out of range for input width {input_width}")
    node = (np.arange(n_total) - np.repeat(offsets[:-1], sizes))[split]
    tree_size = np.repeat(sizes, sizes)[split]
    for name in ("left", "right"):
        child = arrays[name][split]
        if not ((node < child) & (child < tree_size)).all():
            raise FormatError(f"forest {name} links must point to a later node of the same tree")


def _array_shapes(spec: ModelSpec, width: int) -> dict:
    """Name -> shape of every array a ``spec.family`` archive holds; ``None`` leaves a size open."""
    if spec.family == "linear":
        return {"coef": (width,), "intercept": ()}
    if spec.family == "knn":
        return {"train_x": (None, width), "train_y": (None,)}
    if spec.family == "forest":  # _check_forest matches the sizes to the offsets
        return {"offsets": (None,), **dict.fromkeys(Nodes._fields, (None,))}
    return {
        "scaler_mean": (width,),
        "scaler_std": (width,),
        **{f"param_{key}": shape for key, shape in param_shapes(width, spec.layers).items()},
        **{f"running_{key}": shape for key, shape in running_shapes(spec.layers).items()},
    }


def _check_arrays(family: str, shapes: dict, arrays: dict) -> None:
    """Reject an archive whose array names, kinds or shapes differ from ``shapes``."""
    names = set(arrays) - {"meta_json"}
    if names != set(shapes):
        missing, extra = sorted(set(shapes) - names), sorted(names - set(shapes))
        raise FormatError(f"{family} model file lacks arrays {missing} or has unexpected arrays {extra}")
    for name, shape in shapes.items():
        array = arrays[name]
        if array.dtype.kind not in "iuf":
            raise FormatError(f"{family} array {name!r} must be numeric, got {array.dtype}")
        if array.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, array.shape)):
            raise FormatError(f"{family} array {name!r} has shape {array.shape}, expected {shape}")
        if not np.isfinite(array).all():
            raise FormatError(f"{family} array {name!r} holds non-finite values")
    if family == "network":  # predict divides by scaler_std and by sqrt(running_var + eps)
        if (arrays["scaler_std"] <= 0).any():
            raise FormatError("network array 'scaler_std' must be positive")
        negative = [name for name in shapes if name.startswith("running_var") and (arrays[name] < 0).any()]
        if negative:
            raise FormatError(f"network array {negative[0]!r} holds a negative variance")
    if family == "knn" and not 0 < len(arrays["train_x"]) == len(arrays["train_y"]):
        raise FormatError("knn archive needs one label per training row, and at least one row")


def _check_context(context, width: int) -> None:
    """Reject a training context that is not the AP columns and variant of a ``width``-wide model."""
    keys = sorted(context) if isinstance(context, dict) else type(context).__name__
    if keys != ["ap_ids", "variant"]:
        raise FormatError(f"model context must hold exactly ap_ids and variant, got {keys}")
    ap_ids, variant = context["ap_ids"], context["variant"]
    if not (isinstance(ap_ids, list) and ap_ids and all(isinstance(ap, str) and ap for ap in ap_ids)
            and len(set(ap_ids)) == len(ap_ids)):
        raise FormatError("model context ap_ids must be a list of distinct, non-empty AP names")
    if variant not in VARIANTS:
        raise FormatError(f"model context variant must be one of {VARIANTS}, got {variant!r}")
    if width != (expected := len(feature_names(ap_ids, variant))):
        raise FormatError(f"model width {width} does not match its context width {expected}")


# the metadata entries load_model reads, with their JSON types
_META_TYPES = {"spec": dict, "input_width": int, "metadata": dict}


def load_model(source) -> ErrorRegressor:
    """Load a model written by :func:`save_model`.

    The training context, if any, is ``model.metadata["context"]``.  Anything
    but a well-formed archive of a known family and context is a ``FormatError``.
    """
    try:  # not np.load, which also reads a lone .npy and advises unpickling any other file
        data = np.lib.npyio.NpzFile(source)
    except zipfile.BadZipFile:
        raise FormatError("not a model file: not an npz archive") from None
    try:
        with data:
            arrays = {k: data[k] for k in data.files}
    except (ValueError, EOFError, NotImplementedError, zipfile.BadZipFile, zlib.error) as exc:
        raise FormatError(f"not a model file: {exc}") from None
    if "meta_json" not in arrays:
        raise FormatError("not a model file: missing metadata entry")
    try:
        meta = json.loads(str(arrays["meta_json"]))
    except ValueError as exc:
        raise FormatError(f"model metadata is not JSON: {exc}") from None
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported model format version {version!r}; this daepos reads version {FORMAT_VERSION}")
    malformed = [key for key, kind in _META_TYPES.items() if not isinstance(meta.get(key), kind)]
    if malformed or meta["input_width"] < 1:
        raise FormatError(f"model metadata entries missing or malformed: {malformed or ['input_width']}")
    try:
        spec = ModelSpec(**meta["spec"])
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"model spec: {exc}") from None
    metadata, family, width = meta["metadata"], spec.family, meta["input_width"]
    if "context" in metadata:
        _check_context(metadata["context"], width)
    _check_arrays(family, _array_shapes(spec, width), arrays)

    if family == "linear":
        return LinearModel(spec, coef=arrays["coef"], intercept=float(arrays["intercept"]), metadata=metadata)
    if family == "knn":
        try:
            return KnnModel(spec, train_x=arrays["train_x"], train_y=arrays["train_y"], metadata=metadata)
        except DatasetError as exc:  # spec.k above the training rows
            raise FormatError(f"knn model file: {exc}") from None
    if family == "forest":
        _check_forest(arrays, width)
        nodes = Nodes(*(arrays[name] for name in Nodes._fields))
        return ForestModel(spec, arrays["offsets"], nodes, input_width=width, metadata=metadata)
    params = {k[len("param_") :]: v for k, v in arrays.items() if k.startswith("param_")}
    running = {k[len("running_") :]: v for k, v in arrays.items() if k.startswith("running_")}
    return NetworkModel(
        spec, params, running, arrays["scaler_mean"], arrays["scaler_std"], input_width=width, metadata=metadata
    )
