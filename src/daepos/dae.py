"""Construction of the error-regression training dataset.

The signature set is partitioned into folds; each fold is localized against
a radio map built from the remaining folds, and the resulting true
positioning error becomes the record's label.  Every signature therefore
appears as a test item exactly once and is never localized against a map
that contains it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .csvio import csv_rows, csv_writer
from .errors import ConfigError, ContractError, DatasetError, FormatError, RowError
from .positioning import DEFAULT_K, RadioMap, localize
from .signatures import ApRegistry, Position2D, RadioSignature, SignatureTable, feature_matrix

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
    if seed < 0:
        raise ConfigError(f"fold seed must be non-negative, got {seed}")

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
    return FoldPlan(n_folds=n_folds, assignment=tuple(group_fold[group_of].tolist()))


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

    def features(self) -> np.ndarray:
        return self.X

    def labels(self) -> np.ndarray:
        return self.y

    def feature_names(self) -> list[str]:
        return feature_names(self.registry.aps, self.variant)


def _label_signatures(
    test_references: np.ndarray,
    test_vectors: np.ndarray,
    radio_map: RadioMap,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Position estimates (n, 2) and true errors (n,) of the test rows, one ``localize`` each.

    ``test_references`` holds the (n, 2) surveyed positions of the rows.
    """
    estimates = np.empty((len(test_vectors), 2))
    labels = np.empty(len(test_vectors))
    for i, (reference, vec) in enumerate(zip(test_references.tolist(), test_vectors)):
        position = localize(vec, radio_map, k=k).position
        estimates[i] = position.x, position.y
        labels[i] = true_error(position, Position2D(*reference))
    return estimates, labels


def build_dae_dataset(
    signatures: Sequence[RadioSignature],
    registry: ApRegistry,
    plan: FoldPlan,
    k: int = DEFAULT_K,
    variant: str = "plain",
) -> DaeDataset:
    """Label every signature with its leave-fold-out positioning error.

    For each fold, a radio map is built from all signatures outside it and
    the fold's signatures are localized against that map.  Records are
    ordered by (fold, original signature index), which makes the output a
    deterministic function of the inputs.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    table = SignatureTable.of(signatures)
    if len(plan.assignment) != len(table):
        raise ContractError(
            f"fold plan covers {len(plan.assignment)} signatures, dataset has {len(table)}"
        )

    matrix = feature_matrix(table, registry)
    refs, ids = table.references, table.point_ids
    assignment = np.asarray(plan.assignment)

    estimates = np.empty((len(table), 2))
    labels = np.empty(len(table))
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
            refs[test_idx], matrix[test_idx], radio_map, k
        )
        order.append(test_idx)
    order = np.concatenate(order)
    X = feature_rows(matrix[order], estimates[order], variant)
    return DaeDataset(X, labels[order], tuple(ids[i] for i in order), assignment[order], variant, registry)


def build_holdout_dataset(
    test_signatures: Sequence[RadioSignature],
    map_signatures: Sequence[RadioSignature],
    registry: ApRegistry,
    k: int = DEFAULT_K,
    variant: str = "plain",
) -> DaeDataset:
    """Label external signatures against the full calibration map.

    Used for transfer experiments: the records carry fold index -1 because
    they never participate in cross-validation.
    """
    test = SignatureTable.of(test_signatures)
    radio_map = RadioMap.from_signatures(map_signatures, registry)
    vectors = feature_matrix(test, registry)
    estimates, labels = _label_signatures(test.references, vectors, radio_map, k)
    X = feature_rows(vectors, estimates, variant)
    return DaeDataset(X, labels, test.point_ids, np.full(len(labels), EXTERNAL_FOLD), variant, registry)


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
    with csv_rows(source) as rows:
        header = next(rows, None)
        if header is None:
            raise DatasetError("empty dataset file")

        header = [h.strip() for h in header]
        if len(header) < 4 or header[0] != "point_id" or header[1] != "fold" or header[-1] != "delta_pos":
            raise FormatError("dataset header must be 'point_id,fold,<features...>,delta_pos'")
        names = header[2:-1]
        if not all(names) or len(set(names)) != len(names):
            raise FormatError("dataset feature columns must be non-empty and unique")
        variant = "xy" if tuple(names[-2:]) == XY_COLUMNS else "plain"
        ap_ids = names[:-2] if variant == "xy" else names
        if not ap_ids:
            raise FormatError("dataset has no RSSI feature columns")
        registry = ApRegistry(aps=tuple(ap_ids), availability=tuple(0 for _ in ap_ids))

        ids, folds, values = [], [], array("d")
        for num, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise RowError(num, f"expected {len(header)} cells, got {len(row)}")
            try:
                fold = int(row[1])
                cells = [float(c) for c in row[2:]]
            except ValueError as exc:
                raise RowError(num, str(exc)) from None
            if not -(2**63) <= fold < 2**63:
                raise RowError(num, f"fold {row[1].strip()} does not fit a 64-bit integer")
            if not all(map(math.isfinite, cells)):
                raise RowError(num, "non-finite feature or label cell")
            if cells[-1] < 0.0:
                raise RowError(num, f"delta_pos must be >= 0, got {cells[-1]}")
            ids.append(row[0])
            folds.append(fold)
            values.extend(cells)
    if not ids:
        raise DatasetError("dataset file has a header but no records")
    values = np.frombuffer(values).reshape(len(ids), -1)
    return DaeDataset(values[:, :-1], values[:, -1], tuple(ids), folds, variant, registry)
