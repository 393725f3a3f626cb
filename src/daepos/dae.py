"""Construction of the error-regression training dataset.

The signature set is partitioned into folds; each fold is localized against
a radio map built from the remaining folds, and the resulting true
positioning error becomes the record's label.  Every signature therefore
appears as a test item exactly once and is never localized against a map
that contains it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .csvio import csv_writer, read_csv_rows
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

# Estimated-position columns the ``xy`` variant appends to the RSSI features.
XY_COLUMNS = ("x_est", "y_est")


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

    Under ``by_point`` all signatures sharing a point_id land in the same
    fold and the point count per fold is balanced within one; ``point_ids``
    must then be given, one per signature.  ``by_signature`` is the same
    with every signature a group of its own.
    """
    if grouping not in GROUPINGS:
        raise ConfigError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")
    if n_folds < 2:
        raise ConfigError(f"at least 2 folds are required to separate map from test, got {n_folds}")

    if grouping == "by_signature":
        group_of, n_groups, unit = np.arange(n_signatures), n_signatures, "signatures"
    else:
        if point_ids is None or len(point_ids) != n_signatures:
            raise ContractError("by_point grouping requires one point_id per signature")
        first: dict[str, int] = {}  # point_id -> group number in first-appearance order
        group_of = np.array([first.setdefault(p, len(first)) for p in point_ids], dtype=int)
        n_groups, unit = len(first), "distinct points"
    if n_folds > n_groups:
        raise ConfigError(f"{n_folds} folds exceed {n_groups} {unit}")
    group_fold = np.empty(n_groups, dtype=int)
    group_fold[np.random.default_rng(seed).permutation(n_groups)] = np.arange(n_groups) % n_folds
    return FoldPlan(n_folds=n_folds, assignment=tuple(group_fold[group_of].tolist()), seed=seed)


class DaeRecord(NamedTuple):
    """One row of a :class:`DaeDataset`: features plus true positioning error."""

    features: np.ndarray
    label: float  # meters
    point_id: str
    fold: int


def feature_names(aps: Sequence[str], variant: str) -> list[str]:
    """Column layout of a ``variant`` feature row: the AP columns, then ``x_est,y_est`` for ``xy``."""
    return [*aps, *XY_COLUMNS] if variant == "xy" else list(aps)


def feature_rows(vectors: np.ndarray, estimates: np.ndarray, variant: str) -> np.ndarray:
    """Feature rows in the :func:`feature_names` layout.

    ``vectors`` are imputed RSSI rows (or one row) and ``estimates`` the
    matching ``(x, y)`` position estimates, appended for the ``xy`` variant.
    """
    if variant == "xy":
        return np.concatenate([vectors, estimates], axis=-1)
    return vectors


@dataclass(frozen=True)
class DaeDataset:
    """The error-regression dataset, stored by column.

    ``X`` has one row per record in the :func:`feature_names` layout, ``y``
    holds each record's true positioning error in meters, and ``point_ids``
    and ``folds`` its survey point and fold (``EXTERNAL_FOLD`` for records
    labeled against a full map).  The constructor stores read-only copies.
    """

    X: np.ndarray
    y: np.ndarray
    point_ids: tuple[str, ...]
    folds: np.ndarray
    variant: str  # "plain" or "xy"
    registry: ApRegistry

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        X = np.array(self.X, dtype=float, order="C")
        y = np.array(self.y, dtype=float)
        folds = np.array(self.folds, dtype=int)
        point_ids = tuple(self.point_ids)
        width = len(feature_names(self.registry.aps, self.variant))
        if X.ndim != 2 or X.shape[1] != width:
            raise ContractError(f"feature matrix shape {X.shape} does not match dataset width {width}")
        if y.shape != (len(X),) or folds.shape != (len(X),) or len(point_ids) != len(X):
            raise ContractError("a dataset needs one label, one fold and one point_id per feature row")
        if not (np.isfinite(y).all() and (y >= 0.0).all()):
            raise ContractError("record labels must be finite and >= 0")
        for column in (X, y, folds):
            column.setflags(write=False)
        for name, column in (("X", X), ("y", y), ("folds", folds), ("point_ids", point_ids)):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def records(self) -> tuple[DaeRecord, ...]:
        """The rows as :class:`DaeRecord` tuples, built on each access."""
        columns = zip(self.X, self.y.tolist(), self.point_ids, self.folds.tolist())
        return tuple(DaeRecord(*row) for row in columns)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def features(self) -> np.ndarray:
        return self.X

    def labels(self) -> np.ndarray:
        return self.y

    def feature_names(self) -> list[str]:
        return feature_names(self.registry.aps, self.variant)


def _label_signatures(
    test_signatures: Sequence[RadioSignature],
    test_vectors: np.ndarray,
    radio_map: RadioMap,
    k: int,
    weighted: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Position estimates (n, 2) and true errors (n,) of the test signatures, one ``localize`` each."""
    estimates = np.empty((len(test_vectors), 2))
    labels = np.empty(len(test_vectors))
    for i, (sig, vec) in enumerate(zip(test_signatures, test_vectors)):
        position = localize(vec, radio_map, k=k, weighted=weighted).position
        estimates[i] = position.x, position.y
        labels[i] = true_error(position, sig.reference)
    return estimates, labels


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

    estimates = np.empty((len(signatures), 2))
    labels = np.empty(len(signatures))
    order = []
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
        estimates[test_idx], labels[test_idx] = _label_signatures(
            [signatures[i] for i in test_idx], matrix[test_idx], radio_map, k, weighted
        )
        order.append(test_idx)
    order = np.concatenate(order)
    X = feature_rows(matrix[order], estimates[order], variant)
    return DaeDataset(X, labels[order], tuple(ids[i] for i in order), assignment[order], variant, registry)


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
    estimates, labels = _label_signatures(test_signatures, vectors, radio_map, k, weighted)
    X = feature_rows(vectors, estimates, variant)
    ids = tuple(s.point_id for s in test_signatures)
    return DaeDataset(X, labels, ids, np.full(len(labels), EXTERNAL_FOLD), variant, registry)


# ---------------------------------------------------------------------------
# Dataset CSV: point_id,fold,<ap_1..n>[,x_est,y_est],delta_pos


def write_dae_dataset(dataset: DaeDataset, dest, comment: str | None = None) -> None:
    with csv_writer(dest, comment) as writer:
        writer.writerow(["point_id", "fold", *dataset.feature_names(), "delta_pos"])
        columns = zip(dataset.point_ids, dataset.folds.tolist(), dataset.X, dataset.y.tolist())
        for point_id, fold, row, label in columns:  # one row at a time: no full-matrix list of floats
            writer.writerow([point_id, fold, *map(repr, row.tolist()), repr(label)])


def read_dae_dataset(source) -> DaeDataset:
    """Parse a dataset CSV written by :func:`write_dae_dataset`.

    The registry is reconstructed from the header columns; availability
    counts are not stored in the file and read back as zero.
    """
    rows = read_csv_rows(source)
    if not rows:
        raise DatasetError("empty dataset file")

    header = [h.strip() for h in rows[0]]
    if len(header) < 4 or header[0] != "point_id" or header[1] != "fold" or header[-1] != "delta_pos":
        raise FormatError("dataset header must be 'point_id,fold,<features...>,delta_pos'")
    names = header[2:-1]
    variant = "xy" if tuple(names[-2:]) == XY_COLUMNS else "plain"
    ap_ids = names[:-2] if variant == "xy" else names
    if not ap_ids:
        raise FormatError("dataset has no RSSI feature columns")
    registry = ApRegistry(aps=tuple(ap_ids), availability=tuple(0 for _ in ap_ids))

    folds, values = [], []
    for num, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise RowError(num, f"expected {len(header)} cells, got {len(row)}")
        try:
            folds.append(int(row[1]))
            cells = [float(c) for c in row[2:]]
        except ValueError as exc:
            raise RowError(num, str(exc)) from None
        if not all(map(math.isfinite, cells)):
            raise RowError(num, "non-finite feature or label cell")
        if cells[-1] < 0.0:
            raise RowError(num, f"delta_pos must be >= 0, got {cells[-1]}")
        values.append(cells)
    if not values:
        raise DatasetError("dataset file has a header but no records")
    values = np.array(values)
    ids = tuple(row[0] for row in rows[1:])
    return DaeDataset(values[:, :-1], values[:, -1], ids, folds, variant, registry)
