"""kNN fingerprinting positioner.

A query scan is located by finding the k reference signatures closest in
RSSI space (Euclidean distance over imputed dBm vectors) and averaging
their known positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, DatasetError
from .signatures import ApRegistry, Position2D, RadioSignature, SignatureTable, feature_matrix

DEFAULT_K = 4


@dataclass(frozen=True)
class RadioMap:
    """Immutable fingerprinting database: feature vectors plus references.

    ``norms`` holds the squared norm of each vector, computed once for
    every :func:`localize` call against the map.
    """

    registry: ApRegistry
    vectors: np.ndarray  # (n, width) imputed dBm
    references: np.ndarray  # (n, 2) meters
    point_ids: tuple[str, ...]
    norms: np.ndarray = field(init=False, repr=False, compare=False)

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
        norms = np.einsum("ij,ij->i", vectors, vectors)
        for name, array in (("vectors", vectors), ("references", references), ("norms", norms)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.vectors)

    @classmethod
    def from_signatures(cls, signatures: Sequence[RadioSignature], registry: ApRegistry) -> "RadioMap":
        table = SignatureTable.of(signatures)
        return cls(
            registry=registry,
            vectors=feature_matrix(table, registry),
            references=table.references,
            point_ids=table.point_ids,
        )


@dataclass(frozen=True)
class PositionEstimate:
    position: Position2D
    neighbor_indices: tuple[int, ...]


# Upper bound on the scratch memory :func:`nearest` holds at once: the
# filter's (rows, n) float64 blocks and the per-candidate arrays.  Queries
# are processed in chunks of that many rows (at least one).
_SCRATCH_BYTES = 8 * 2**20

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# Squared norms up to this keep every sum the filter forms finite; with a
# larger one (or NaN or inf) in a block, all its pairs are candidates.
_NORM_LIMIT = np.finfo(float).max / 8


def nearest(queries, vectors, k: int, norms=None) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` rows of ``vectors`` nearest to each row of ``queries``.

    Returns ``(indices, keys)``, both (n_queries, min(k, n)), ordered by
    ascending squared Euclidean distance (the keys, each the sum of the
    squared per-column differences); at equal distance the lower row index
    comes first, exactly as a stable argsort of every row would rank them.
    A BLAS pre-filter rules most entries out, and only the rest are keyed
    and ranked exactly, so the result is that of the full ranking.  The
    per-chunk scratch stays within ``_SCRATCH_BYTES`` (or one query row, if
    larger), however many queries are passed.  ``norms``, the squared
    norms of ``vectors``' rows, are computed here when not given.
    """
    Q = np.asarray(queries, dtype=float)
    V = np.asarray(vectors, dtype=float)
    if Q.ndim != 2 or V.ndim != 2 or Q.shape[1] != V.shape[1]:
        raise ContractError(f"query block {Q.shape} does not match vectors {V.shape}")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    n, width = V.shape
    k = min(k, n)
    if norms is None:
        norms = np.einsum("ij,ij->i", V, V)
    indices = np.empty((len(Q), k), dtype=np.intp)
    keys = np.empty((len(Q), k))
    # 64 bytes per (query, entry): the filter's two float blocks take 16;
    # with every entry a candidate, the four per-candidate arrays take 32 and
    # the key slices below another 3/8 of the scratch
    rows = max(1, _SCRATCH_BYTES // (64 * max(1, n)))
    step = max(1, _SCRATCH_BYTES // (64 * max(1, width)))
    for start in range(0, len(Q), rows):
        block = Q[start : start + rows]
        r_idx, c_idx = _candidates(block, V, k, norms)
        # exact subtract-square-sum keys of the candidates, in slices whose
        # three (candidates, width) arrays take 3/8 of the scratch
        key = np.empty(len(r_idx))
        for a in range(0, len(r_idx), step):
            diff = block[r_idx[a : a + step]] - V[c_idx[a : a + step]]
            np.square(diff, out=diff)
            key[a : a + step] = diff.sum(axis=1)
        # NaN keys sort last, like the stable argsort's
        order = np.lexsort((c_idx, key, r_idx))
        # r_idx is sorted, so each row's candidates start after the earlier rows'
        pick = order[np.searchsorted(r_idx, np.arange(len(block)))[:, None] + np.arange(k)]
        indices[start : start + rows] = c_idx[pick]
        keys[start : start + rows] = key[pick]
    return indices, keys


def _candidates(block, V, k, norms):
    """Row-major (row, column) pairs of ``block`` x ``V`` that may rank among each row's ``k`` nearest.

    ``norms`` holds the squared norms of ``V``'s rows.  Every pair is a
    candidate for ``k >= n``, and when the block or ``V`` holds a squared
    norm that is not finite or exceeds ``_NORM_LIMIT`` (a non-finite value,
    or one near the float range).  Otherwise a BLAS expansion of the
    squared distance, less the query's own squared norm, rules out the
    pairs that cannot rank, with one bound per query row.

    Error bound.  Let u = eps/2 be the unit roundoff, w the width and, per
    query q, S = |q|^2 + max_v |v|^2, so that every entry v of that row has
    s = |q|^2 + |v|^2 <= S and D = |q - v|^2 <= 2s.  A sum of w products, in
    any order, errs by at most gamma_w = w*u/(1 - w*u) times the sum of their
    magnitudes (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 3.1), whatever order BLAS uses.  So:

    - the exact key fl(sum (q_j - v_j)^2) carries at most w + 2 rounding
      factors per non-negative term (the difference's, squared, the square's
      and w - 1 from the sum): |key - D| <= gamma_{w+2} D <= 2 gamma_{w+2} S;
    - g = fl(fl((-2q).v) + fl(|v|^2)) approximates G = D - |q|^2: scaling by
      -2 is exact, the dot product errs by gamma_w * sum|2 q_j v_j| <=
      gamma_w * s, the norm by gamma_w * |v|^2, and the addition, whose
      operands sum to at most 2s in magnitude, by u * 2s: |g - G| <=
      2 gamma_w S + 2u S.

    Hence each entry of the row has |g - (key - |q|^2)| <= E = (4w + 6) u S
    (1 + O(wu)) = (2w + 3) eps S, and its bound e = 8(w + 8) eps (S + tiny)
    is at least four times that, which also absorbs the roundings of the
    computed norms, of e and of the threshold.  Gradual underflow adds at
    most u * tiny per product (3w of them), which the ``tiny`` covers.  Both
    norms are at most _NORM_LIMIT, so S, g and the partial sums stay finite.
    Let K be the row's k-th smallest key and t its k-th smallest g.  Every g
    is at least key - |q|^2 - E, so t >= K - |q|^2 - E; every entry whose key
    is at most K, ties included, has g <= key - |q|^2 + E <= t + 2E <= t + 2e
    and is a candidate.
    """
    n, width = V.shape
    block_norms = np.einsum("ij,ij->i", block, block)
    norm_max = norms.max()
    # `not <=` is also true for a NaN maximum
    if k == n or not (block_norms.max() <= _NORM_LIMIT and norm_max <= _NORM_LIMIT):
        return np.divmod(np.arange(len(block) * n), n)
    g = (-2.0 * block) @ V.T
    g += norms
    bound = (2 * 8 * (width + 8) * _EPS) * (block_norms + (norm_max + _TINY))
    # the sum is a new array, so the partitioned copy is freed before the comparison
    thr = np.partition(g, k - 1, axis=1)[:, k - 1] + bound
    mask = g <= thr[:, None]
    del g  # before the index arrays are made
    # np.nonzero's pairs, which it finds several times slower in a 2-D mask
    return np.divmod(np.flatnonzero(mask), n)


def localize(query, radio_map: RadioMap, k: int = DEFAULT_K) -> PositionEstimate:
    """Estimate the position of ``query`` against ``radio_map`` with k-NN.

    Neighbors are the k map entries at smallest RSSI distance, ranked by
    :func:`nearest` on its square; ties at the k-th distance are resolved in
    favor of the lower map-entry index.  The estimate is the mean of the
    neighbors' reference positions.
    """
    if len(radio_map) < k:
        raise DatasetError(f"radio map has {len(radio_map)} entries; the positioner needs {k} map scans")
    query = np.asarray(query, dtype=float)
    if query.shape != (radio_map.vectors.shape[1],):
        raise ContractError(
            f"query width {query.shape} does not match map width ({radio_map.vectors.shape[1]},)"
        )
    if not np.isfinite(query).all():
        raise ContractError("query vector contains non-finite dBm values")

    indices, _ = nearest(query[None, :], radio_map.vectors, k, norms=radio_map.norms)
    idx = indices[0]
    pos = radio_map.references[idx].mean(axis=0)
    return PositionEstimate(
        position=Position2D(float(pos[0]), float(pos[1])),
        neighbor_indices=tuple(int(i) for i in idx),
    )
