"""Random forest of CART regression trees.

Trees grow on bootstrap resamples of the training set and split on the
(feature, threshold) pair that minimizes the summed squared deviation of
the two children.  The ensemble prediction is the arithmetic mean of the
individual tree predictions, which tests can reproduce exactly from
``tree_predictions``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .base import ErrorRegressor, ModelSpec

LEAF = -1

# Upper bound on the traversal's scratch memory, at 80 bytes per (tree, row)
# cursor: rows are taken in chunks that fit it (at least one row per chunk).
_SCRATCH_BYTES = 8 * 2**20


class Nodes(NamedTuple):
    """Flat node arrays of one tree, or of several concatenated: node i is a leaf iff feature[i] == -1."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32, local to the node's tree
    right: np.ndarray  # int32, local to the node's tree
    value: np.ndarray  # float64, leaf prediction

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _best_split(X: np.ndarray, y: np.ndarray):
    """Exhaustive variance-reduction split over all columns of X.

    Returns (column, threshold) or None when no column admits a split.
    Candidate thresholds are midpoints between consecutive distinct sorted
    values; ties in the split score resolve to the lowest (position,
    column) pair, keeping tree construction deterministic.
    """
    m, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    csum2 = np.cumsum(ys * ys, axis=0)
    total, total2 = csum[-1], csum2[-1]

    n_left = np.arange(1, m, dtype=float)[:, None]
    n_right = float(m) - n_left
    s_left, s2_left = csum[:-1], csum2[:-1]
    s_right, s2_right = total - s_left, total2 - s2_left
    score = s2_left - s_left * s_left / n_left + s2_right - s_right * s_right / n_right
    score[xs[1:] <= xs[:-1]] = np.inf  # no split between equal values

    flat = int(np.argmin(score))
    i, c = divmod(flat, d)
    if not np.isfinite(score[i, c]):
        return None
    lo, hi = xs[i, c], xs[i + 1, c]
    threshold = 0.5 * (lo + hi)
    if threshold >= hi:  # adjacent floats: midpoint may round up
        threshold = lo
    return c, float(threshold)


def _fit_tree(X, y) -> Nodes:
    """Grow one tree to purity: a node is a leaf once its labels are equal or no column splits it."""
    leaf = [LEAF, 0.0, LEAF, LEAF, 0.0]
    rows = [leaf.copy()]  # one [feature, threshold, left, right, value] row per node
    stack = [(np.arange(len(X)), 0)]
    while stack:
        idx, nid = stack.pop()
        ysub = y[idx]
        split = None if ysub.max() == ysub.min() else _best_split(X[idx], ysub)
        if split is None:
            rows[nid][4] = float(ysub.mean())
            continue
        col, thr = split
        mask = X[idx, col] <= thr
        lid, rid = len(rows), len(rows) + 1
        rows[nid][:4] = col, thr, lid, rid
        rows += [leaf.copy(), leaf.copy()]
        stack.append((idx[~mask], rid))
        stack.append((idx[mask], lid))
    feature, threshold, left, right, value = (np.array(column) for column in zip(*rows))
    return Nodes(feature.astype(np.int32), threshold, left.astype(np.int32), right.astype(np.int32), value)


class ForestModel(ErrorRegressor):
    """Every tree's nodes in one set of arrays, as the model file stores them.

    Tree i holds nodes ``offsets[i]`` up to ``offsets[i + 1]``; its child links count from ``offsets[i]``.
    """

    family = "forest"

    def __init__(self, spec: ModelSpec, offsets: np.ndarray, nodes: Nodes, input_width: int, metadata=None):
        super().__init__(spec, input_width=input_width, metadata=metadata)
        self.offsets, self.nodes = offsets, nodes

    @property
    def trees(self) -> list[Nodes]:
        """Per-tree views of the node arrays, through which the benchmark counts a forest's nodes."""
        bounds = zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        return [Nodes(*(column[lo:hi] for column in self.nodes)) for lo, hi in bounds]

    def _leaves(self, X: np.ndarray):
        """Yield each chunk of X's rows (one empty chunk for no rows) with its (n_trees, rows) leaf values.

        One cursor per (tree, row) starts at its tree's root.  All advance together, adding the
        tree's offset to each tree-local link, until every cursor is at a leaf.
        """
        feature, threshold, left, right, value = self.nodes
        roots = self.offsets[:-1].astype(np.intp)
        step = max(1, _SCRATCH_BYTES // (80 * len(roots)))
        for start in range(0, max(len(X), 1), step):
            block = X[start : start + step]
            node = np.repeat(roots, len(block))  # cursor i serves tree i // len(block), row i % len(block)
            active = np.flatnonzero(feature[node] >= 0)
            while active.size:
                tree, row = np.divmod(active, len(block))
                nd = node[active]
                go_left = block[row, feature[nd]] <= threshold[nd]
                node[active] = roots[tree] + np.where(go_left, left[nd], right[nd])
                active = active[feature[node[active]] >= 0]
            yield slice(start, start + step), value[node].reshape(len(roots), -1)

    def tree_predictions(self, features) -> np.ndarray:
        """(n_trees, n_queries) matrix of individual tree outputs."""
        X, _ = self._as_matrix(features)
        return np.hstack([leaves for _, leaves in self._leaves(X)])

    def _raw(self, X: np.ndarray) -> np.ndarray:
        # cumsum adds the trees in order, as ``tree_predictions(X).mean(axis=0)`` does
        # for two or more rows, so a row gets the same bits alone as inside a batch
        total = np.empty(len(X))
        for rows, leaves in self._leaves(X):
            total[rows] = np.cumsum(leaves, axis=0)[-1]
        return total / (len(self.offsets) - 1)


def fit_forest(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> ForestModel:
    n = len(X)
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.trees)
    samples = (np.random.default_rng(seq).integers(0, n, size=n) for seq in seeds)
    trees = [_fit_tree(X[sample], y[sample]) for sample in samples]
    offsets = np.cumsum([0] + [tree.n_nodes for tree in trees]).astype(np.int64)
    return ForestModel(spec, offsets, Nodes(*map(np.concatenate, zip(*trees))), input_width=X.shape[1])
