import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from daepos import (
    ApRegistry,
    ContractError,
    DatasetError,
    Position2D,
    RadioMap,
    localize,
    nearest,
    positioning,
)


def make_map(vectors, references):
    vectors = np.asarray(vectors, dtype=float)
    registry = ApRegistry(
        aps=tuple(f"ap{i}" for i in range(vectors.shape[1])),
        availability=tuple(len(vectors) for _ in range(vectors.shape[1])),
    )
    return RadioMap(
        registry=registry,
        vectors=vectors,
        references=np.asarray(references, dtype=float),
        point_ids=tuple(f"p{i}" for i in range(len(vectors))),
    )


def brute_force_neighbors(vectors, query, k):
    """Full sort on per-entry distances with explicit index tie-breaking."""
    dists = [math.sqrt(sum((v - q) ** 2 for v, q in zip(row, query))) for row in vectors]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    return tuple(order[:k])


def test_localize_exact_match_k1():
    radio_map = make_map([[-50.0, -60.0], [-70.0, -80.0]], [[1.0, 2.0], [5.0, 6.0]])
    # an exact match, and a 3-4-5 triangle away from the first entry
    for query, index, position in (
        ([-70.0, -80.0], 1, Position2D(5.0, 6.0)),
        ([-53.0, -56.0], 0, Position2D(1.0, 2.0)),
    ):
        est = localize(query, radio_map, k=1)
        assert est.position == position
        assert est.neighbor_indices == (index,)


def test_localize_unit_square_centroid():
    # four corners, query equidistant from all in RSSI space
    vectors = [[-50.0, -50.0], [-50.0, -70.0], [-70.0, -50.0], [-70.0, -70.0]]
    refs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    est = localize([-60.0, -60.0], make_map(vectors, refs), k=4)
    assert est.position == Position2D(0.5, 0.5)


def test_localize_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(4, 30))
        d = int(rng.integers(2, 10))
        vectors = rng.uniform(-110, -30, size=(n, d))
        refs = rng.uniform(0, 25, size=(n, 2))
        query = rng.uniform(-110, -30, size=d)
        k = int(rng.integers(1, n + 1))
        est = localize(query, make_map(vectors, refs), k=k)
        assert est.neighbor_indices == brute_force_neighbors(vectors, query, k)
        assert np.allclose(
            [est.position.x, est.position.y], refs[list(est.neighbor_indices)].mean(axis=0), atol=0
        )


def test_localize_translation_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        vectors = rng.uniform(-110, -30, size=(15, 6))
        refs = rng.uniform(0, 10, size=(15, 2))
        query = rng.uniform(-110, -30, size=6)
        base = localize(query, make_map(vectors, refs), k=4)
        col = int(rng.integers(0, 6))
        offset = float(rng.uniform(-5, 5))
        shifted_vectors = vectors.copy()
        shifted_vectors[:, col] += offset
        shifted_query = query.copy()
        shifted_query[col] += offset
        shifted = localize(shifted_query, make_map(shifted_vectors, refs), k=4)
        assert shifted.neighbor_indices == base.neighbor_indices


def test_localize_position_inside_neighbor_bounding_box():
    rng = np.random.default_rng(23)
    vectors = rng.uniform(-110, -30, size=(20, 4))
    refs = rng.uniform(0, 30, size=(20, 2))
    est = localize(rng.uniform(-110, -30, size=4), make_map(vectors, refs), k=5)
    hood = refs[list(est.neighbor_indices)]
    assert hood[:, 0].min() <= est.position.x <= hood[:, 0].max()
    assert hood[:, 1].min() <= est.position.y <= hood[:, 1].max()


def test_localize_tie_break_prefers_lower_index():
    # two identical entries at different references: index 0 must win at k=1
    vectors = [[-50.0, -50.0], [-50.0, -50.0], [-80.0, -80.0]]
    refs = [[0.0, 0.0], [9.0, 9.0], [5.0, 5.0]]
    est = localize([-50.0, -50.0], make_map(vectors, refs), k=1)
    assert est.neighbor_indices == (0,)
    assert est.position == Position2D(0.0, 0.0)


def test_localize_deterministic_under_storage_permutation():
    rng = np.random.default_rng(31)
    vectors = rng.uniform(-110, -30, size=(12, 4))
    refs = rng.uniform(0, 10, size=(12, 2))
    query = rng.uniform(-110, -30, size=4)
    baseline = localize(query, make_map(vectors, refs), k=3)
    for _ in range(10):
        perm = rng.permutation(12)
        est = localize(query, make_map(vectors[perm], refs[perm]), k=3)
        # same physical entries selected, same position up to summation order
        assert {int(perm[i]) for i in est.neighbor_indices} == set(baseline.neighbor_indices)
        assert est.position.x == pytest.approx(baseline.position.x, abs=1e-12)
        assert est.position.y == pytest.approx(baseline.position.y, abs=1e-12)


def test_localize_map_smaller_than_k_is_dataset_error():
    radio_map = make_map([[-50.0, -60.0]], [[0.0, 0.0]])
    with pytest.raises(DatasetError):
        localize([-50.0, -60.0], radio_map, k=2)


def test_localize_width_mismatch_is_contract_error():
    radio_map = make_map([[-50.0, -60.0]], [[0.0, 0.0]])
    with pytest.raises(ContractError):
        localize([-50.0], radio_map, k=1)


def test_localize_non_finite_query_is_contract_error():
    radio_map = make_map([[-50.0, -60.0], [-70.0, -80.0]], [[0.0, 0.0], [1.0, 1.0]])
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractError):
            localize([-50.0, bad], radio_map, k=1)


def test_radio_map_non_finite_vectors_is_contract_error():
    for bad in (math.nan, -math.inf):
        with pytest.raises(ContractError):
            make_map([[-50.0, -60.0], [bad, -80.0]], [[0.0, 0.0], [1.0, 1.0]])


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 30))
    width = draw(st.integers(1, 6))
    n_queries = draw(st.integers(1, 12))
    k = draw(st.one_of(st.integers(1, n + 2), st.just(n), st.integers((n + 1) // 2, n)))
    # few distinct integer dBm levels, so equal distances are frequent
    levels = st.integers(-64, -60).map(float)
    V = np.array(draw(st.lists(levels, min_size=n * width, max_size=n * width))).reshape(n, width)
    Q = np.array(draw(st.lists(levels, min_size=n_queries * width, max_size=n_queries * width)))
    Q = Q.reshape(n_queries, width)
    nan_at = draw(st.sampled_from([None, "query", "vector"]))
    if nan_at == "query":
        Q[draw(st.integers(0, n_queries - 1)), 0] = math.nan
    elif nan_at == "vector":
        V[draw(st.integers(0, n - 1)), 0] = math.nan
    # cap between one and n_queries + 1 whole query rows, often not a multiple
    row_bytes = 64 * n
    cap = draw(st.integers(1, (n_queries + 1) * row_bytes))
    return Q, V, k, cap


@st.composite
def filter_cases(draw):
    """Finite inputs with k < n: ties and near-ties the pre-filter must keep,
    and magnitudes at both ends of the float range."""
    n = draw(st.integers(2, 200))
    width = draw(st.integers(1, 40))
    n_queries = draw(st.integers(1, 8))
    k = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(
        ["dbm-grid", "large-near-ties", "far-map", "mixed-columns", "underflow", "overflow", "outlier-norm"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dbm-grid":
        # integer dBm rows, many duplicated; some queries repeat map rows
        pool = rng.integers(-100, -29, size=(draw(st.integers(1, n)), width)).astype(float)
        V = pool[rng.integers(0, len(pool), size=n)]
        Q = rng.integers(-100, -29, size=(n_queries, width)).astype(float)
        repeat = rng.random(n_queries) < 0.5
        Q[repeat] = V[rng.integers(0, n, size=repeat.sum())]
    elif kind == "large-near-ties":
        # differences of 1-4 ulps on a -1e4 dBm base: the expansion cancels
        # to noise far above the keys, so only the slack keeps the true ones
        ulp = np.spacing(1e4)
        V = -1e4 + rng.integers(-4, 5, size=(n, width)) * ulp
        Q = -1e4 + rng.integers(-4, 5, size=(n_queries, width)) * ulp
    elif kind == "far-map":
        # the same map near -1e4 dBm, queries near 0: the map's norms, not
        # the queries', set the expansion's rounding error
        V = -1e4 + rng.integers(-4, 5, size=(n, width)) * np.spacing(1e4)
        Q = rng.integers(-1, 2, size=(n_queries, width)).astype(float)
    elif kind == "outlier-norm":
        # one map row with a squared norm ~1e12 times the rest's (still far
        # below _NORM_LIMIT) widens every query row's bound
        V = rng.integers(-100, -29, size=(n, width)).astype(float)
        V[rng.integers(0, n)] *= 1e6
        Q = rng.integers(-100, -29, size=(n_queries, width)).astype(float)
    elif kind in ("underflow", "overflow"):
        # squares in the subnormal range, where rounding errs by an absolute
        # amount the relative slack alone would not cover; or near the top of
        # the float range, where the expansion's sums would overflow
        scale = 10.0 ** draw(st.floats(-163, -155) if kind == "underflow" else st.floats(150, 155))
        V = rng.integers(-20, 21, size=(n, width)) * scale
        Q = rng.integers(-20, 21, size=(n_queries, width)) * scale
    else:
        # dBm columns next to 0-80 m estimated-coordinate columns
        V = np.hstack([rng.integers(-100, -29, size=(n, width)), rng.uniform(0, 80, size=(n, 2))])
        Q = np.hstack([rng.integers(-100, -29, size=(n_queries, width)),
                       rng.uniform(0, 80, size=(n_queries, 2))])
        Q[: n_queries // 2] = V[rng.integers(0, n, size=n_queries // 2)]
    cap = draw(st.integers(1, (n_queries + 1) * 64 * n))
    return Q, V, k, cap, kind == "overflow"


@settings(max_examples=600, deadline=None)
@given(case=st.one_of(search_cases().map(lambda case: (*case, False)), filter_cases()))
def test_nearest_equals_full_stable_argsort(case):
    Q, V, k, cap, overflows = case
    with np.errstate(over="ignore"):  # inf keys rank last
        key = np.sum((Q[:, None, :] - V[None]) ** 2, axis=2)
    expected = np.argsort(key, axis=1, kind="stable")[:, :k]
    with np.errstate(over="ignore" if overflows else "raise"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(positioning, "_SCRATCH_BYTES", cap)
        indices, keys = nearest(Q, V, k)
    np.testing.assert_array_equal(indices, expected)
    np.testing.assert_array_equal(keys, np.take_along_axis(key, expected, axis=1))


@pytest.mark.parametrize("kind", ["random", "all-ties", "non-finite", "outlier-norm"])
def test_nearest_peak_memory_is_the_scratch_bound_plus_outputs(kind):
    rng = np.random.default_rng(5)
    if kind == "random":
        V = rng.uniform(-110, -30, size=(1920, 37))
        Q = rng.uniform(-110, -30, size=(2000, 37))
    elif kind == "all-ties":  # every entry a candidate: the per-candidate arrays are largest
        V = np.full((1920, 37), -60.0)
        Q = np.full((200, 37), -60.0)
    elif kind == "non-finite":  # no filter: every entry a candidate
        V = rng.uniform(-110, -30, size=(1920, 37))
        V[0, 0] = np.nan
        Q = rng.uniform(-110, -30, size=(200, 37))
    else:  # one entry's norm widens every row's bound, so most entries are candidates
        V = rng.uniform(-110, -30, size=(1920, 37))
        V[0] *= 1e6
        Q = rng.uniform(-110, -30, size=(200, 37))
    k = 4
    outputs = len(Q) * k * (np.dtype(np.intp).itemsize + 8)
    tracemalloc.start()
    try:
        nearest(Q, V, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= positioning._SCRATCH_BYTES + outputs + 64 * 1024


def per_entry_slack_candidates(block, V, k, norms):
    """The pre-filter with a slack per (query, entry) pair, as ``nearest`` used before its per-row bound.

    Each pair's expansion |q|^2 + |v|^2 - 2 q.v gets the slack
    8(w + 8) eps (|q|^2 + |v|^2 + tiny), and a pair is a candidate when its
    expansion less the slack is at most the row's k-th smallest expansion
    plus slack.
    """
    n, width = V.shape
    block_norms = np.einsum("ij,ij->i", block, block)
    if k == n or not (block_norms.max() <= positioning._NORM_LIMIT and norms.max() <= positioning._NORM_LIMIT):
        return np.divmod(np.arange(len(block) * n), n)
    approx = block @ V.T
    approx *= -2.0
    approx += block_norms[:, None]
    approx += norms
    c = 8 * (width + 8) * positioning._EPS
    slack = np.add.outer(c * block_norms, c * (norms + positioning._TINY))
    upper = approx + slack
    upper.partition(k - 1, axis=1)
    thr = upper[:, k - 1 : k].copy()
    del upper
    approx -= slack
    del slack
    return np.nonzero(approx <= thr)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(search_cases().map(lambda case: (*case, False)), filter_cases()))
def test_nearest_is_the_same_bits_as_with_the_per_entry_slack_filter(case):
    Q, V, k, cap, overflows = case
    with np.errstate(over="ignore" if overflows else "raise"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(positioning, "_SCRATCH_BYTES", cap)
        indices, keys = nearest(Q, V, k)
        mp.setattr(positioning, "_candidates", per_entry_slack_candidates)
        oracle_indices, oracle_keys = nearest(Q, V, k)
    assert indices.tobytes() == oracle_indices.tobytes()
    assert keys.tobytes() == oracle_keys.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=search_cases())
def test_localize_is_first_row_of_nearest(case):
    Q, V, k, _ = case
    # localize rejects non-finite input and maps smaller than k
    assume(np.isfinite(Q[0]).all() and np.isfinite(V).all() and k <= len(V))
    radio_map = make_map(V, np.arange(2.0 * len(V)).reshape(-1, 2))
    est = localize(Q[0], radio_map, k=k)
    indices, _ = nearest(Q[:1], V, k)
    assert est.neighbor_indices == tuple(indices[0])


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(search_cases().map(lambda case: (*case, False)), filter_cases()))
def test_nearest_with_given_norms_is_the_same_bits(case):
    Q, V, k, _, overflows = case
    with np.errstate(over="ignore" if overflows else "raise"):
        indices, keys = nearest(Q, V, k)
        given_indices, given_keys = nearest(Q, V, k, norms=np.einsum("ij,ij->i", V, V))
    assert given_indices.tobytes() == indices.tobytes()
    assert given_keys.tobytes() == keys.tobytes()


def test_radio_map_holds_the_read_only_squared_norms_of_its_vectors():
    radio_map = make_map([[-50.0, -60.0], [-70.5, -99.0]], [[0.0, 0.0], [1.0, 1.0]])
    assert radio_map.norms.tobytes() == np.einsum("ij,ij->i", radio_map.vectors, radio_map.vectors).tobytes()
    assert not radio_map.norms.flags.writeable
