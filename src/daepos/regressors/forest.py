"""Random forest of CART regression trees.

Trees grow on bootstrap resamples of the training set and split on the
(feature, threshold) pair that minimizes the summed squared deviation of
the two children.  The ensemble prediction is the arithmetic mean of the
individual tree predictions, which tests can reproduce exactly from
``tree_predictions``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ErrorRegressor, ModelSpec

LEAF = -1


@dataclass
class Tree:
    """Flat array representation: node i is a leaf iff feature[i] == -1."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    value: np.ndarray  # float64, leaf prediction

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        node = np.zeros(len(X), dtype=np.int64)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            nd = node[active]
            go_left = X[active, self.feature[nd]] <= self.threshold[nd]
            node[active] = np.where(go_left, self.left[nd], self.right[nd])
            active = active[self.feature[node[active]] >= 0]
        return self.value[node]

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


def _fit_tree(X, y) -> Tree:
    """Grow one tree to purity: a node is a leaf once its labels are equal or no column splits it."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        value.append(0.0)
        return len(feature) - 1

    stack = [(np.arange(len(X)), new_node())]
    while stack:
        idx, nid = stack.pop()
        ysub = y[idx]
        split = None if ysub.max() == ysub.min() else _best_split(X[idx], ysub)
        if split is None:
            value[nid] = float(ysub.mean())
            continue
        col, thr = split
        mask = X[idx, col] <= thr
        lid, rid = new_node(), new_node()
        feature[nid], threshold[nid], left[nid], right[nid] = col, thr, lid, rid
        stack.append((idx[~mask], rid))
        stack.append((idx[mask], lid))

    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=float),
    )


class ForestModel(ErrorRegressor):
    family = "forest"

    def __init__(self, spec: ModelSpec, trees: list[Tree], input_width: int, metadata=None):
        super().__init__(spec, input_width=input_width, metadata=metadata)
        self.trees = trees

    def tree_predictions(self, features) -> np.ndarray:
        """(n_trees, n_queries) matrix of individual tree outputs."""
        X, _ = self._as_matrix(features)
        return np.stack([tree.predict(X) for tree in self.trees])

    def _raw(self, X: np.ndarray) -> np.ndarray:
        # Tree by tree, as ``tree_predictions(X).mean(axis=0)`` sums for two or
        # more rows, so a row gets the same bits alone as inside a batch.
        total = self.trees[0].predict(X)
        for tree in self.trees[1:]:
            total += tree.predict(X)
        return total / len(self.trees)


def fit_forest(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> ForestModel:
    n = len(X)
    trees = []
    for seq in np.random.SeedSequence(spec.seed).spawn(spec.trees):
        sample = np.random.default_rng(seq).integers(0, n, size=n)
        trees.append(_fit_tree(X[sample], y[sample]))
    return ForestModel(spec, trees=trees, input_width=X.shape[1])
