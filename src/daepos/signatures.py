"""Radio signature ingestion and feature extraction.

A radio signature is one Wi-Fi scan: per-access-point RSSI readings in dBm
annotated with the 2-D reference position where the scan was taken.  A
survey is held as a :class:`SignatureTable`, one RSSI array for all of its
scans.  This module parses signature files, selects the access points to
keep (by how often each one was detected), and turns scans into
fixed-width feature vectors with missing readings imputed by the constant
:data:`FILL_DBM`.

Canonical file format: CSV with header ``point_id,x,y,<ap_1>,...,<ap_n>``,
one row per scan, empty cell = AP not detected.  Leading lines starting with
``#`` are treated as comments.  The ``zenodo`` layout reads wide fingerprint
CSVs with different column conventions through the same parser.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .csvio import csv_cell, csv_rows, line_writer, numeric_table
from .errors import ContractError, DataValueError, DatasetError, FormatError, RowError, ShapeError

# Physically meaningful RSSI range for received Wi-Fi signals.
RSSI_MIN = -120.0
RSSI_MAX = 0.0

# Largest magnitude of a position coordinate, in meters: far beyond any
# survey, and small enough that sums of positions (k-neighbour means,
# distances) stay finite.
COORD_MAX = 1e9

# Imputation constant for undetected APs, below any observable reading.  The
# positioner and the error model share it, so it is not a parameter.
FILL_DBM = -99.0


@dataclass(frozen=True)
class Position2D:
    """A point in the local metric coordinate frame, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (abs(self.x) <= COORD_MAX and abs(self.y) <= COORD_MAX):
            raise DataValueError(_coordinates_outside(self.x, self.y))


@dataclass(frozen=True)
class RadioSignature:
    """One scan: AP id -> RSSI dBm readings plus the reference position."""

    point_id: str
    reference: Position2D
    readings: Mapping[str, float]

    def __post_init__(self):
        if not self.readings:
            raise DataValueError("a radio signature needs at least one reading")
        for ap, rssi in self.readings.items():
            if not ap:
                raise DataValueError("empty AP identifier")
            if not (RSSI_MIN <= rssi <= RSSI_MAX):
                raise DataValueError(_out_of_range(rssi, ap))
        # Freeze the mapping so signatures are safe to share between workers.
        object.__setattr__(self, "readings", MappingProxyType(dict(self.readings)))


def _out_of_range(rssi: float, ap: str) -> str:
    return f"RSSI {rssi} dBm for AP {ap!r} outside [{RSSI_MIN}, {RSSI_MAX}]"


def _coordinates_outside(x: float, y: float) -> str:
    return f"position coordinates must be finite and within +-{COORD_MAX:g} m, got ({x}, {y})"


@dataclass(frozen=True, eq=False)
class SignatureTable(Sequence):
    """A survey stored by column: one row per scan, one RSSI column per AP.

    ``rssi`` holds NaN where the row's scan did not detect the column's AP.
    The constructor checks what :class:`RadioSignature` checks of each scan
    and keeps read-only copies of the arrays.  As a sequence, ``table[i]``
    and iteration build each row's :class:`RadioSignature` on demand, with
    its readings in column order.
    """

    point_ids: tuple[str, ...]
    references: np.ndarray  # (n, 2) meters
    ap_ids: tuple[str, ...]
    rssi: np.ndarray  # (n, len(ap_ids)) dBm, NaN = not detected

    def __post_init__(self):
        point_ids, ap_ids = tuple(self.point_ids), tuple(self.ap_ids)
        references = np.array(self.references, dtype=float)
        rssi = np.array(self.rssi, dtype=float)
        if references.shape != (len(point_ids), 2) or rssi.shape != (len(point_ids), len(ap_ids)):
            raise ShapeError(
                f"references {references.shape} and readings {rssi.shape} do not fit "
                f"{len(point_ids)} scans of {len(ap_ids)} APs"
            )
        if not all(ap_ids):
            raise DataValueError("empty AP identifier")
        if len(set(ap_ids)) != len(ap_ids):
            raise DataValueError("duplicate AP identifier")
        inside = (np.abs(references) <= COORD_MAX).all(axis=1)
        if not inside.all():
            raise DataValueError(_coordinates_outside(*references[inside.argmin()].tolist()))
        detected = ~np.isnan(rssi)
        if not detected.any(axis=1).all():
            raise DataValueError("a radio signature needs at least one reading")
        outside = detected & ~((rssi >= RSSI_MIN) & (rssi <= RSSI_MAX))
        if outside.any():
            i, j = np.argwhere(outside)[0].tolist()
            raise DataValueError(_out_of_range(float(rssi[i, j]), ap_ids[j]))
        references.setflags(write=False)
        rssi.setflags(write=False)
        for name, value in (("point_ids", point_ids), ("references", references), ("ap_ids", ap_ids), ("rssi", rssi)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_column", {ap: j for j, ap in enumerate(ap_ids)})

    @classmethod
    def of(cls, signatures: "SignatureTable | Iterable[RadioSignature]") -> "SignatureTable":
        """``signatures`` itself when it is a table, else a table of its scans with sorted AP columns."""
        if isinstance(signatures, cls):
            return signatures
        signatures = list(signatures)
        ap_ids = sorted(set().union(*(sig.readings for sig in signatures)))
        column = {ap: j for j, ap in enumerate(ap_ids)}
        rssi = np.full((len(signatures), len(ap_ids)), np.nan)
        for row, sig in zip(rssi, signatures):
            row[[column[ap] for ap in sig.readings]] = list(sig.readings.values())
        references = np.array([[sig.reference.x, sig.reference.y] for sig in signatures], dtype=float)
        return cls(tuple(sig.point_id for sig in signatures), references.reshape(-1, 2), tuple(ap_ids), rssi)

    def column_of(self, ap: str) -> int | None:
        """Column index of ``ap``, or None if the table has no such column."""
        return self._column.get(ap)

    def __len__(self) -> int:
        return len(self.point_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        readings = {ap: rssi for ap, rssi in zip(self.ap_ids, self.rssi[index].tolist()) if rssi == rssi}  # NaN != NaN
        return RadioSignature(self.point_ids[index], Position2D(*self.references[index].tolist()), readings)


@dataclass(frozen=True)
class ApRegistry:
    """Ordered list of retained APs with their detection counts.

    The order fixes the feature-vector column layout for everything
    downstream, so it must be deterministic for a given dataset.
    """

    aps: tuple[str, ...]
    availability: tuple[int, ...]

    def __post_init__(self):
        if len(self.aps) != len(self.availability):
            raise ShapeError("aps and availability lengths differ")
        if len(set(self.aps)) != len(self.aps):
            raise DataValueError("duplicate AP in registry")
        if any(not ap for ap in self.aps):
            raise DataValueError("empty AP identifier in registry")
        object.__setattr__(self, "_slot", {ap: i for i, ap in enumerate(self.aps)})

    def __len__(self) -> int:
        return len(self.aps)

    def index_of(self, ap: str) -> int | None:
        """Column index of ``ap``, or None if the AP was not retained."""
        return self._slot.get(ap)


def build_registry(signatures: Sequence[RadioSignature], m: int) -> ApRegistry:
    """Select the ``m`` most available APs across ``signatures``.

    Availability is the number of signatures in which an AP was detected.
    Ties are broken by higher mean RSSI over the detections, then by AP id,
    so the registry never depends on input order.  If fewer than ``m``
    distinct APs exist, all of them are retained.
    """
    if m < 1:
        raise ContractError(f"registry size must be >= 1, got {m}")
    table = SignatureTable.of(signatures)
    if not table:
        raise DatasetError("cannot build an AP registry from an empty dataset")

    detected = ~np.isnan(table.rssi)
    counts = detected.sum(axis=0).tolist()
    # cumsum adds each column in scan order; sum(axis=0) may add a column pairwise
    sums = np.cumsum(np.where(detected, table.rssi, 0.0), axis=0)[-1].tolist()
    seen = [j for j, count in enumerate(counts) if count]
    ranked = sorted(seen, key=lambda j: (-counts[j], -sums[j] / counts[j], table.ap_ids[j]))
    kept = ranked[:m]
    return ApRegistry(aps=tuple(table.ap_ids[j] for j in kept), availability=tuple(counts[j] for j in kept))


def feature_matrix(signatures: Sequence[RadioSignature], registry: ApRegistry) -> np.ndarray:
    """The (n, width) feature rows of ``signatures``, aligned with ``registry`` order.

    Readings for APs outside the registry are dropped; registry APs a scan
    did not detect get :data:`FILL_DBM`.
    """
    table = SignatureTable.of(signatures)
    if not table:
        raise DatasetError("cannot build a feature matrix from an empty dataset")
    if len(registry) == 0:
        raise ContractError("cannot vectorize against an empty registry")
    columns = [table.column_of(ap) for ap in registry.aps]
    slots = [slot for slot, column in enumerate(columns) if column is not None]
    matrix = np.full((len(table), len(registry)), np.nan)
    matrix[:, slots] = table.rssi[:, [columns[slot] for slot in slots]]
    matrix[np.isnan(matrix)] = FILL_DBM
    return matrix


# ---------------------------------------------------------------------------
# Parsing and serialization


def parse_signatures(source, fmt: str = "canonical") -> SignatureTable:
    """Parse a signature file in the given format into a :class:`SignatureTable`.

    ``source`` may be a path or an open text stream.  ``fmt`` is one of :data:`SIGNATURE_FORMATS`; it
    decides which columns hold the point id and coordinates and which RSSI cells are missed detections.
    Every other column is an AP, whose names must be non-empty and unique.  Each row's coordinates are
    checked as it is read, and the readings of all rows in one pass (:func:`csvio.numeric_table`).
    """
    if fmt not in _LAYOUTS:
        raise ContractError(f"unknown signature format {fmt!r}; expected one of {sorted(_LAYOUTS)}")
    locate, sentinels = _LAYOUTS[fmt]
    with csv_rows(source) as rows:
        header = next(rows, None)
        if header is None:
            raise DatasetError("empty signature file")
        header = [h.strip() for h in header]
        pi, xi, yi = locate(header)
        id_columns = sorted({pi, xi, yi} - {None}, reverse=True)
        ap_ids = [name for i, name in enumerate(header) if i not in id_columns]
        if not ap_ids:
            raise FormatError("no AP columns left after removing coordinate/id columns")
        if len(set(ap_ids)) != len(ap_ids) or not all(ap_ids):
            raise FormatError("AP columns must be non-empty and unique")

        def convert(num: int, row: list[str]) -> tuple[str, list[float]]:
            x, y = _reading(row[xi]), _reading(row[yi])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise RowError(num, f"non-numeric coordinate ({row[xi]!r}, {row[yi]!r})")
            if not (abs(x) <= COORD_MAX and abs(y) <= COORD_MAX):
                raise RowError(num, _coordinates_outside(x, y))
            point_id = row[pi].strip() if pi is not None else f"row{num}"
            for i in id_columns:
                del row[i]  # the AP cells are left, in column order
            try:
                return point_id, [x, y, *[float(cell) if cell else math.nan for cell in row]]
            except ValueError:
                return point_id, [x, y, *map(_reading, row)]

        point_ids, table = numeric_table(rows, len(header), convert, lambda v: _checked_table(v, ap_ids, sentinels))
    if not point_ids:
        raise DatasetError("signature file has a header but no data rows")
    return SignatureTable(tuple(point_ids), table[:, :2], tuple(ap_ids), table[:, 2:])


def _checked_table(values, ap_ids: list[str], sentinels: bool) -> np.ndarray:
    """The parsed rows as an (n, 2 + len(ap_ids)) view of x, y and the readings, missed detections made NaN.

    A non-finite reading is a missed detection, and so is a zenodo sentinel.  The first row without a
    reading or, in the canonical layout, with a reading out of range is a ``RowError``.
    """
    table = np.frombuffer(values).reshape(-1, 2 + len(ap_ids))
    rssi = table[:, 2:]
    rssi[~np.isfinite(rssi)] = np.nan
    outside = (rssi < RSSI_MIN) | (rssi > RSSI_MAX)
    if sentinels:
        rssi[outside | (rssi == 0.0)] = np.nan
    empty = np.isnan(rssi).all(axis=1)
    bad = empty if sentinels else empty | outside.any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        if empty[i]:
            raise RowError(i + 1, "scan contains no readings") from None
        j = int(outside[i].argmax())
        raise RowError(i + 1, _out_of_range(float(rssi[i, j]), ap_ids[j])) from None
    return table


def _reading(cell: str) -> float:
    """The number in a cell, or NaN when the cell is empty or unparseable."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _canonical_columns(header: list[str]) -> tuple[int, int, int]:
    if len(header) < 4 or header[:3] != ["point_id", "x", "y"]:
        raise FormatError(
            "canonical header must be 'point_id,x,y,<ap_1>,...,<ap_n>', got "
            + ",".join(header[:4] or ["<empty>"])
        )
    return 0, 1, 2


# Column-name candidates used to locate coordinates / point labels in wide
# fingerprint CSVs published with varying conventions.
_X_NAMES = {"x", "pos_x", "ref_x", "x_m", "x_ref", "x_coord"}
_Y_NAMES = {"y", "pos_y", "ref_y", "y_m", "y_ref", "y_coord"}
_ID_NAMES = {"point_id", "point", "pid", "id", "label", "location"}


def _zenodo_columns(header: list[str]) -> tuple[int | None, int, int]:
    """Locate the id and coordinate columns of a wide fingerprint CSV by name (case-insensitive).

    Without an id column each scan is named ``row<n>``.  Two columns named
    from one set (say ``x`` and ``pos_x``) are a ``FormatError``.
    """

    def find(role: str, names: set[str]) -> int | None:
        hits = [i for i, name in enumerate(header) if name.lower() in names]
        if len(hits) > 1:
            raise FormatError(f"header has more than one {role} column: {', '.join(header[i] for i in hits)}")
        return hits[0] if hits else None

    xi, yi = find("x", _X_NAMES), find("y", _Y_NAMES)
    if xi is None or yi is None:
        raise FormatError(f"could not locate coordinate columns in header {header[:6]}...")
    return find("id", _ID_NAMES), xi, yi


# Format -> (column locator, whether 0 and out-of-range RSSI cells are
# sentinels such as 0, 100 or -200 for a missed detection rather than errors).
_LAYOUTS = {"canonical": (_canonical_columns, False), "zenodo": (_zenodo_columns, True)}
SIGNATURE_FORMATS = tuple(_LAYOUTS)


def write_signatures(signatures: Sequence[RadioSignature], dest, comment: str | None = None) -> None:
    """Write signatures as canonical CSV to a path or text stream.

    The AP columns are the sorted ids of the APs detected at least once.
    Floats are written with ``repr`` precision so a parse round-trip is
    exact.
    """
    table = SignatureTable.of(signatures)
    if not table:
        raise DatasetError("refusing to write an empty signature file")
    detected = (~np.isnan(table.rssi)).any(axis=0).tolist()
    ap_order = sorted(ap for ap, seen in zip(table.ap_ids, detected) if seen)
    columns = [table.column_of(ap) for ap in ap_order]

    with line_writer(dest, comment) as out:
        out.write(",".join(map(csv_cell, ["point_id", "x", "y", *ap_order])) + "\n")
        for point_id, (x, y), row in zip(table.point_ids, table.references.tolist(), table.rssi):
            cells = ",".join(["" if rssi != rssi else repr(rssi) for rssi in row[columns].tolist()])
            out.write(f"{csv_cell(point_id)},{x!r},{y!r},{cells}\n")
