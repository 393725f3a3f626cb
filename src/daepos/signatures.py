"""Radio signature ingestion and feature extraction.

A radio signature is one Wi-Fi scan: per-access-point RSSI readings in dBm
annotated with the 2-D reference position where the scan was taken.  This
module parses signature files, selects the access points to keep (by how
often each one was detected), and turns signatures into fixed-width feature
vectors with missing readings imputed by a constant fill value.

Canonical file format: CSV with header ``point_id,x,y,<ap_1>,...,<ap_n>``,
one row per scan, empty cell = AP not detected.  Leading lines starting with
``#`` are treated as comments.  The ``zenodo`` layout reads wide fingerprint
CSVs with different column conventions through the same parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .csvio import csv_writer, read_csv_rows
from .errors import ContractError, DatasetError, FormatError, RowError

# Physically meaningful RSSI range for received Wi-Fi signals.
RSSI_MIN = -120.0
RSSI_MAX = 0.0

# Imputation constant for undetected APs, below any observable reading.
DEFAULT_FILL_DBM = -99.0


@dataclass(frozen=True)
class Position2D:
    """A point in the local metric coordinate frame, in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"position coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class RadioSignature:
    """One scan: AP id -> RSSI dBm readings plus the reference position."""

    point_id: str
    reference: Position2D
    readings: Mapping[str, float]

    def __post_init__(self):
        if not self.readings:
            raise ValueError("a radio signature needs at least one reading")
        for ap, rssi in self.readings.items():
            if not ap:
                raise ValueError("empty AP identifier")
            if not (RSSI_MIN <= rssi <= RSSI_MAX):
                raise ValueError(f"RSSI {rssi} dBm for AP {ap!r} outside [{RSSI_MIN}, {RSSI_MAX}]")
        # Freeze the mapping so signatures are safe to share between workers.
        object.__setattr__(self, "readings", MappingProxyType(dict(self.readings)))

    def __eq__(self, other):
        if not isinstance(other, RadioSignature):
            return NotImplemented
        return (
            self.point_id == other.point_id
            and self.reference == other.reference
            and dict(self.readings) == dict(other.readings)
        )

    def __hash__(self):
        return hash((self.point_id, self.reference, tuple(sorted(self.readings.items()))))


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
            raise ValueError("aps and availability lengths differ")
        if len(set(self.aps)) != len(self.aps):
            raise ValueError("duplicate AP in registry")
        if any(not ap for ap in self.aps):
            raise ValueError("empty AP identifier in registry")
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
    if not signatures:
        raise DatasetError("cannot build an AP registry from an empty dataset")

    counts: dict[str, int] = {}
    rssi_sums: dict[str, float] = {}
    for sig in signatures:
        for ap, rssi in sig.readings.items():
            counts[ap] = counts.get(ap, 0) + 1
            rssi_sums[ap] = rssi_sums.get(ap, 0.0) + rssi

    ranked = sorted(counts, key=lambda ap: (-counts[ap], -rssi_sums[ap] / counts[ap], ap))
    kept = ranked[: min(m, len(ranked))]
    return ApRegistry(aps=tuple(kept), availability=tuple(counts[ap] for ap in kept))


def vectorize(signature: RadioSignature, registry: ApRegistry, fill: float = DEFAULT_FILL_DBM) -> np.ndarray:
    """Impute ``signature`` into a vector aligned with ``registry`` order.

    Readings for APs outside the registry are dropped; registry APs the
    signature did not detect get ``fill``.
    """
    if len(registry) == 0:
        raise ContractError("cannot vectorize against an empty registry")
    vec = np.full(len(registry), float(fill))
    for ap, rssi in signature.readings.items():
        slot = registry.index_of(ap)
        if slot is not None:
            vec[slot] = rssi
    return vec


def feature_matrix(
    signatures: Sequence[RadioSignature], registry: ApRegistry, fill: float = DEFAULT_FILL_DBM
) -> np.ndarray:
    """Stack :func:`vectorize` over all signatures into an (n, width) matrix."""
    if not signatures:
        raise DatasetError("cannot build a feature matrix from an empty dataset")
    return np.stack([vectorize(sig, registry, fill) for sig in signatures])


def reference_matrix(signatures: Sequence[RadioSignature]) -> np.ndarray:
    """(n, 2) array of reference positions in signature order."""
    return np.array([[s.reference.x, s.reference.y] for s in signatures], dtype=float)


# ---------------------------------------------------------------------------
# Parsing and serialization


def parse_signatures(source, fmt: str = "canonical") -> list[RadioSignature]:
    """Parse a signature file in the given format into RadioSignatures.

    ``source`` may be a path or an open text stream.  ``fmt`` is one of
    :data:`SIGNATURE_FORMATS`; it decides which columns hold the point id
    and coordinates and which RSSI cells are missed detections.  Every
    other column is an AP, whose names must be non-empty and unique.
    """
    if fmt not in _LAYOUTS:
        raise ContractError(f"unknown signature format {fmt!r}; expected one of {sorted(_LAYOUTS)}")
    rows = read_csv_rows(source)
    if not rows:
        raise DatasetError("empty signature file")
    locate, sentinels = _LAYOUTS[fmt]
    header = [h.strip() for h in rows[0]]
    pi, xi, yi = locate(header)
    ap_cols = [i for i in range(len(header)) if i not in {pi, xi, yi}]
    ap_ids = [header[i] for i in ap_cols]
    if not ap_ids:
        raise FormatError("no AP columns left after removing coordinate/id columns")
    if len(set(ap_ids)) != len(ap_ids) or not all(ap_ids):
        raise FormatError("AP columns must be non-empty and unique")
    if len(rows) == 1:
        raise DatasetError("signature file has a header but no data rows")

    signatures = []
    for num, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise RowError(num, f"expected {len(header)} cells, got {len(row)}")
        x = _parse_float(row[xi])
        y = _parse_float(row[yi])
        if x is None or y is None:
            raise RowError(num, f"non-numeric coordinate ({row[xi]!r}, {row[yi]!r})")
        readings = {}
        for ap, i in zip(ap_ids, ap_cols):
            cell = row[i].strip()
            rssi = _parse_float(cell) if cell else None  # skipping empty cells first avoids slow exceptions
            if rssi is None or (sentinels and (rssi == 0.0 or not RSSI_MIN <= rssi <= RSSI_MAX)):
                continue  # unreadable cell (or sentinel) counts as a missed detection
            readings[ap] = rssi
        if not readings:
            raise RowError(num, "scan contains no readings")
        point_id = row[pi].strip() if pi is not None else f"row{num}"
        try:
            signatures.append(RadioSignature(point_id, Position2D(x, y), readings))
        except ValueError as exc:
            raise RowError(num, str(exc)) from None
    return signatures


def _parse_float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


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

    Without an id column each scan is named ``row<n>``.
    """
    lower = [h.lower() for h in header]

    def find(names: set[str]) -> int | None:
        return next((i for i, name in enumerate(lower) if name in names), None)

    xi, yi = find(_X_NAMES), find(_Y_NAMES)
    if xi is None or yi is None:
        raise FormatError(f"could not locate coordinate columns in header {header[:6]}...")
    return find(_ID_NAMES), xi, yi


# Format -> (column locator, whether 0 and out-of-range RSSI cells are
# sentinels such as 0, 100 or -200 for a missed detection rather than errors).
_LAYOUTS = {"canonical": (_canonical_columns, False), "zenodo": (_zenodo_columns, True)}
SIGNATURE_FORMATS = tuple(_LAYOUTS)


def write_signatures(
    signatures: Sequence[RadioSignature],
    dest,
    ap_order: Iterable[str] | None = None,
    comment: str | None = None,
) -> None:
    """Write signatures as canonical CSV to a path or text stream.

    Column order defaults to the sorted union of all AP ids.  Floats are
    written with ``repr`` precision so a parse round-trip is exact.
    """
    if not signatures:
        raise DatasetError("refusing to write an empty signature file")
    if ap_order is None:
        aps: set[str] = set()
        for sig in signatures:
            aps.update(sig.readings)
        ap_order = sorted(aps)
    ap_order = list(ap_order)

    with csv_writer(dest, comment) as writer:
        writer.writerow(["point_id", "x", "y", *ap_order])
        for sig in signatures:
            cells = [sig.point_id, repr(float(sig.reference.x)), repr(float(sig.reference.y))]
            for ap in ap_order:
                rssi = sig.readings.get(ap)
                cells.append("" if rssi is None else repr(float(rssi)))
            writer.writerow(cells)
