"""kNN fingerprinting positioner.

A query scan is located by finding the k reference signatures closest in
RSSI space (Euclidean distance over imputed dBm vectors) and averaging
their known positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DatasetError
from .signatures import (
    DEFAULT_FILL_DBM,
    ApRegistry,
    Position2D,
    RadioSignature,
    feature_matrix,
    reference_matrix,
)

DEFAULT_K = 4


@dataclass(frozen=True)
class RadioMap:
    """Immutable fingerprinting database: feature vectors plus references."""

    registry: ApRegistry
    vectors: np.ndarray  # (n, width) imputed dBm
    references: np.ndarray  # (n, 2) meters
    point_ids: tuple[str, ...]

    def __post_init__(self):
        # own copies, frozen: the map must stay valid if the source arrays change
        vectors = np.array(self.vectors, dtype=float)
        references = np.array(self.references, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != len(self.registry):
            raise ContractError(
                f"map vectors must be (n, {len(self.registry)}), got {vectors.shape}"
            )
        if references.shape != (len(vectors), 2):
            raise ContractError("map references must be (n, 2) and match the vectors")
        if len(self.point_ids) != len(vectors):
            raise ContractError("one point_id per map entry required")
        if not np.isfinite(vectors).all():
            raise ContractError("map vectors contain non-finite dBm values")
        vectors.setflags(write=False)
        references.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "references", references)

    def __len__(self) -> int:
        return len(self.vectors)

    @classmethod
    def from_signatures(
        cls,
        signatures: Sequence[RadioSignature],
        registry: ApRegistry,
        fill: float = DEFAULT_FILL_DBM,
    ) -> "RadioMap":
        return cls(
            registry=registry,
            vectors=feature_matrix(signatures, registry, fill),
            references=reference_matrix(signatures),
            point_ids=tuple(s.point_id for s in signatures),
        )


@dataclass(frozen=True)
class PositionEstimate:
    position: Position2D
    neighbor_indices: tuple[int, ...]
    neighbor_distances: tuple[float, ...]


# Upper bound on the (rows, n, width) float64 difference block that
# :func:`nearest` holds at once; queries are processed in chunks of that many
# rows (at least one).
_SCRATCH_BYTES = 8 * 2**20


def nearest(queries, vectors, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` rows of ``vectors`` nearest to each row of ``queries``.

    Returns ``(indices, keys)``, both (n_queries, min(k, n)), ordered by
    ascending squared Euclidean distance (the keys); at equal distance the
    lower row index comes first, exactly as a stable argsort of every row
    would rank them.  The per-chunk difference block stays within
    ``_SCRATCH_BYTES`` (or one query row, if larger), however many queries
    are passed.
    """
    Q = np.asarray(queries, dtype=float)
    V = np.asarray(vectors, dtype=float)
    if Q.ndim != 2 or V.ndim != 2 or Q.shape[1] != V.shape[1]:
        raise ContractError(f"query block {Q.shape} does not match vectors {V.shape}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    n, width = V.shape
    kk = min(k, n)
    indices = np.empty((len(Q), kk), dtype=np.intp)
    keys = np.empty((len(Q), kk))
    rows = max(1, _SCRATCH_BYTES // max(1, 8 * n * width))
    for start in range(0, len(Q), rows):
        diff = Q[start : start + rows, None, :] - V[None, :, :]
        np.square(diff, out=diff)
        key = diff.sum(axis=2)
        del diff  # freed before the next chunk allocates its own
        idx = _smallest(key, kk)
        indices[start : start + rows] = idx
        keys[start : start + rows] = key[np.arange(len(key))[:, None], idx]
    return indices, keys


def _smallest(key: np.ndarray, k: int) -> np.ndarray:
    """Per row, ``np.argsort(key, kind="stable")[:, :k]`` without the full sort."""
    if k >= key.shape[1]:
        return np.argsort(key, axis=1, kind="stable")[:, :k]
    rows = np.arange(len(key))
    # Partitioning at column k leaves the k smallest keys before it, in
    # arbitrary order and with arbitrary members among equal keys, and the
    # next-smallest key at it.  Order the picks by (key, index).
    part = np.argpartition(key, k, axis=1)
    cand = np.sort(part[:, :k], axis=1)
    picked = key[rows[:, None], cand]
    idx = cand[rows[:, None], np.argsort(picked, axis=1, kind="stable")]
    # Unless the next key exceeds every pick, a tie may straddle the cut and
    # have dropped a lower index (or a key is NaN): rank such rows in full.
    straddled = ~(key[rows, part[:, k]] > picked.max(axis=1))
    for r in np.flatnonzero(straddled):
        idx[r] = np.argsort(key[r], kind="stable")[:k]
    return idx


def localize(query, radio_map: RadioMap, k: int = DEFAULT_K, weighted: bool = False) -> PositionEstimate:
    """Estimate the position of ``query`` against ``radio_map`` with k-NN.

    Neighbors are the k map entries at smallest RSSI distance, ranked by
    :func:`nearest` on its square; ties at the k-th distance are resolved in
    favor of the lower map-entry index.  The estimate is the unweighted mean
    of the neighbors' reference positions, or their inverse-distance
    weighted mean when ``weighted`` is set.
    """
    if len(radio_map) < k:
        raise DatasetError(f"radio map has {len(radio_map)} entries, fewer than k={k}")
    query = np.asarray(query, dtype=float)
    if query.shape != (radio_map.vectors.shape[1],):
        raise ContractError(
            f"query width {query.shape} does not match map width ({radio_map.vectors.shape[1]},)"
        )
    if not np.isfinite(query).all():
        raise ContractError("query vector contains non-finite dBm values")

    indices, keys = nearest(query[None, :], radio_map.vectors, k)
    idx, neighbor_dists = indices[0], np.sqrt(keys[0])
    refs = radio_map.references[idx]

    if weighted:
        zero = neighbor_dists == 0.0
        if zero.any():
            # Exact fingerprint matches dominate: average only those.
            pos = refs[zero].mean(axis=0)
        else:
            w = 1.0 / neighbor_dists
            pos = (refs * w[:, None]).sum(axis=0) / w.sum()
    else:
        pos = refs.mean(axis=0)

    return PositionEstimate(
        position=Position2D(float(pos[0]), float(pos[1])),
        neighbor_indices=tuple(int(i) for i in idx),
        neighbor_distances=tuple(float(d) for d in neighbor_dists),
    )
