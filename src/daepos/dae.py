"""Construction of the error-regression training dataset.

The signature set is partitioned into folds; each fold is localized against
a radio map built from the remaining folds, and the resulting true
positioning error becomes the record's label.  Every signature therefore
appears as a test item exactly once and is never localized against a map
that contains it.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, DatasetError, FormatError, RowError
from .positioning import RadioMap, localize
from .signatures import (
    DEFAULT_FILL_DBM,
    ApRegistry,
    Position2D,
    RadioSignature,
    feature_matrix,
    reference_matrix,
)

GROUPINGS = ("by_signature", "by_point")
VARIANTS = ("plain", "xy")

# Fold index used for records labeled against an external (full) map rather
# than a cross-validation fold.
EXTERNAL_FOLD = -1


def true_error(estimate: Position2D, reference: Position2D) -> float:
    """Euclidean distance in meters between estimated and true positions."""
    return math.hypot(estimate.x - reference.x, estimate.y - reference.y)


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each signature to exactly one fold."""

    n_folds: int
    assignment: tuple[int, ...]
    seed: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.assignment) == fold)


def make_fold_plan(
    n_signatures: int,
    n_folds: int,
    seed: int,
    grouping: str = "by_signature",
    point_ids: Sequence[str] | None = None,
) -> FoldPlan:
    """Randomly partition ``n_signatures`` into ``n_folds`` folds.

    Under ``by_signature`` the signature count per fold is balanced within
    one.  Under ``by_point`` all signatures sharing a point_id land in the
    same fold and the point count per fold is balanced within one;
    ``point_ids`` must then be given, one per signature.
    """
    if grouping not in GROUPINGS:
        raise ConfigError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")
    if n_folds < 2:
        raise ConfigError(f"at least 2 folds are required to separate map from test, got {n_folds}")

    rng = np.random.default_rng(seed)
    if grouping == "by_signature":
        if n_folds > n_signatures:
            raise ConfigError(f"{n_folds} folds exceed {n_signatures} signatures")
        assignment = np.empty(n_signatures, dtype=int)
        assignment[rng.permutation(n_signatures)] = np.arange(n_signatures) % n_folds
    else:
        if point_ids is None or len(point_ids) != n_signatures:
            raise ContractError("by_point grouping requires one point_id per signature")
        points = list(dict.fromkeys(point_ids))  # first-appearance order
        if n_folds > len(points):
            raise ConfigError(f"{n_folds} folds exceed {len(points)} distinct points")
        point_fold: dict[str, int] = {}
        perm = rng.permutation(len(points))
        for rank, pi in enumerate(perm):
            point_fold[points[pi]] = rank % n_folds
        assignment = np.array([point_fold[p] for p in point_ids], dtype=int)

    return FoldPlan(n_folds=n_folds, assignment=tuple(int(f) for f in assignment), seed=seed)


@dataclass(frozen=True)
class DaeRecord:
    """One supervised example: feature vector plus true positioning error."""

    features: np.ndarray
    label: float  # meters, >= 0
    point_id: str
    fold: int

    def __post_init__(self):
        features = np.array(self.features, dtype=float)  # own copy, never a view
        features.setflags(write=False)
        object.__setattr__(self, "features", features)
        if not (math.isfinite(self.label) and self.label >= 0.0):
            raise ValueError(f"record label must be finite and >= 0, got {self.label}")


@dataclass(frozen=True)
class DaeDataset:
    records: tuple[DaeRecord, ...]
    variant: str  # "plain" or "xy"
    registry: ApRegistry

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        width = len(self.registry) + (2 if self.variant == "xy" else 0)
        for rec in self.records:
            if rec.features.shape != (width,):
                raise ContractError(
                    f"record width {rec.features.shape} does not match dataset width ({width},)"
                )

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_features(self) -> int:
        return len(self.registry) + (2 if self.variant == "xy" else 0)

    def features(self) -> np.ndarray:
        return np.stack([r.features for r in self.records])

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records])

    def feature_names(self) -> list[str]:
        names = list(self.registry.aps)
        if self.variant == "xy":
            names += ["x_est", "y_est"]
        return names

    def subset(self, indices: Sequence[int]) -> "DaeDataset":
        return DaeDataset(
            records=tuple(self.records[i] for i in indices),
            variant=self.variant,
            registry=self.registry,
        )


def _label_signatures(
    test_signatures: Sequence[RadioSignature],
    test_vectors: np.ndarray,
    radio_map: RadioMap,
    k: int,
    variant: str,
    fold: int,
    weighted: bool,
) -> list[DaeRecord]:
    records = []
    for sig, vec in zip(test_signatures, test_vectors):
        est = localize(vec, radio_map, k=k, weighted=weighted)
        label = true_error(est.position, sig.reference)
        if variant == "xy":
            features = np.concatenate([vec, [est.position.x, est.position.y]])
        else:
            features = vec
        records.append(DaeRecord(features=features, label=label, point_id=sig.point_id, fold=fold))
    return records


def build_dae_dataset(
    signatures: Sequence[RadioSignature],
    registry: ApRegistry,
    plan: FoldPlan,
    k: int = 4,
    variant: str = "plain",
    fill: float = DEFAULT_FILL_DBM,
    weighted: bool = False,
) -> DaeDataset:
    """Label every signature with its leave-fold-out positioning error.

    For each fold, a radio map is built from all signatures outside it and
    the fold's signatures are localized against that map.  Records are
    ordered by (fold, original signature index), which makes the output a
    deterministic function of the inputs.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if len(plan.assignment) != len(signatures):
        raise ContractError(
            f"fold plan covers {len(plan.assignment)} signatures, dataset has {len(signatures)}"
        )

    matrix = feature_matrix(signatures, registry, fill)
    refs = reference_matrix(signatures)
    ids = tuple(s.point_id for s in signatures)
    assignment = np.asarray(plan.assignment)

    records: list[DaeRecord] = []
    for fold in range(plan.n_folds):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)
        if len(train_idx) < k:
            raise DatasetError(
                f"fold {fold}: map would have {len(train_idx)} signatures, fewer than k={k}"
            )
        radio_map = RadioMap(
            registry=registry,
            vectors=matrix[train_idx],
            references=refs[train_idx],
            point_ids=tuple(ids[i] for i in train_idx),
        )
        records.extend(
            _label_signatures(
                [signatures[i] for i in test_idx], matrix[test_idx], radio_map, k, variant, fold, weighted
            )
        )
    return DaeDataset(records=tuple(records), variant=variant, registry=registry)


def build_holdout_dataset(
    test_signatures: Sequence[RadioSignature],
    map_signatures: Sequence[RadioSignature],
    registry: ApRegistry,
    k: int = 4,
    variant: str = "plain",
    fill: float = DEFAULT_FILL_DBM,
    weighted: bool = False,
) -> DaeDataset:
    """Label external signatures against the full calibration map.

    Used for transfer experiments: the records carry fold index -1 because
    they never participate in cross-validation.
    """
    radio_map = RadioMap.from_signatures(map_signatures, registry, fill)
    vectors = feature_matrix(test_signatures, registry, fill)
    records = _label_signatures(test_signatures, vectors, radio_map, k, variant, EXTERNAL_FOLD, weighted)
    return DaeDataset(records=tuple(records), variant=variant, registry=registry)


# ---------------------------------------------------------------------------
# Dataset CSV: point_id,fold,<ap_1..n>[,x_est,y_est],delta_pos


def write_dae_dataset(dataset: DaeDataset, dest, comment: str | None = None) -> None:
    if hasattr(dest, "write"):
        _write_dataset_rows(dest, dataset, comment)
    else:
        with open(os.fspath(dest), "w", encoding="utf-8", newline="") as f:
            _write_dataset_rows(f, dataset, comment)


def _write_dataset_rows(stream, dataset, comment):
    if comment:
        stream.write(f"# {comment}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["point_id", "fold", *dataset.feature_names(), "delta_pos"])
    for rec in dataset.records:
        writer.writerow(
            [rec.point_id, rec.fold, *(repr(float(v)) for v in rec.features), repr(float(rec.label))]
        )


def read_dae_dataset(source) -> DaeDataset:
    """Parse a dataset CSV written by :func:`write_dae_dataset`.

    The registry is reconstructed from the header columns; availability
    counts are not stored in the file and read back as zero.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(os.fspath(source), "r", encoding="utf-8", newline="") as f:
            text = f.read()
    lines = text.splitlines()
    start = 0
    while start < len(lines) and lines[start].lstrip().startswith("#"):
        start += 1
    rows = [row for row in csv.reader(lines[start:]) if row]
    if not rows:
        raise DatasetError("empty dataset file")

    header = [h.strip() for h in rows[0]]
    if len(header) < 4 or header[0] != "point_id" or header[1] != "fold" or header[-1] != "delta_pos":
        raise FormatError("dataset header must be 'point_id,fold,<features...>,delta_pos'")
    feature_names = header[2:-1]
    variant = "plain"
    ap_ids = feature_names
    if len(feature_names) >= 2 and feature_names[-2:] == ["x_est", "y_est"]:
        variant = "xy"
        ap_ids = feature_names[:-2]
    if not ap_ids:
        raise FormatError("dataset has no RSSI feature columns")
    registry = ApRegistry(aps=tuple(ap_ids), availability=tuple(0 for _ in ap_ids))

    records = []
    for num, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise RowError(num, f"expected {len(header)} cells, got {len(row)}")
        try:
            fold = int(row[1])
            values = np.array([float(c) for c in row[2:]])
        except ValueError as exc:
            raise RowError(num, str(exc)) from None
        if not np.isfinite(values).all():
            raise RowError(num, "non-finite feature or label cell")
        records.append(
            DaeRecord(features=values[:-1], label=float(values[-1]), point_id=row[0], fold=fold)
        )
    if not records:
        raise DatasetError("dataset file has a header but no records")
    return DaeDataset(records=tuple(records), variant=variant, registry=registry)
