import functools
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from daepos import ConfigError, ContractError, DatasetError, FormatError
from daepos.regressors import (
    LinearModel,
    ModelSpec,
    fit,
    fit_arrays,
    load_model,
    save_model,
)
from daepos.regressors import forest, network as net
from daepos.regressors.forest import ForestModel, _fit_tree


def regression_problem(rng, n=60, d=5, noise=0.3):
    X = rng.uniform(-110, -30, size=(n, d))
    w = rng.uniform(-0.05, 0.05, size=d)
    y = np.abs(X @ w + rng.normal(0, noise, size=n) + 2.0)
    return X, y


# --- spec validation -----------------------------------------------------------


def test_spec_rejects_unknown_family():
    with pytest.raises(ConfigError):
        ModelSpec(family="boosting")


# Out of range, or of the wrong type: a float, a bool or a string where an
# integer, a bool or a finite positive rate belongs.
_BAD_SPECS = [
    {"family": "knn", "k": 0},
    {"family": "forest", "trees": 0},
    {"family": "network", "layers": ()},
    {"family": "network", "learning_rate": 0.0},
    {"family": "knn", "k": True},
    {"family": "knn", "k": 2.0},
    {"family": "forest", "trees": 2.5},
    {"family": "network", "layers": (2.7,)},
    {"family": "network", "layers": [8, False]},
    {"family": "network", "layers": 8},
    {"family": "network", "epochs": 1.5},
    {"family": "network", "batch_size": True},
    {"family": "network", "learning_rate": float("nan")},
    {"family": "network", "learning_rate": float("inf")},
    {"family": "network", "learning_rate": True},
    {"family": "network", "learning_rate": "0.1"},
    {"family": "network", "learning_rate": 10**400},
    {"family": "linear", "seed": 1.0},
]


def test_spec_rejects_bad_family_parameters():
    for params in _BAD_SPECS:
        with pytest.raises(ConfigError):
            ModelSpec(**params)


def test_fit_non_finite_training_data_is_contract_error():
    X = np.zeros((4, 2))
    for bad_x, bad_y in ((np.nan, 0.0), (0.0, np.inf)):
        Xb, yb = X.copy(), np.ones(4)
        Xb[1, 1] = bad_x
        yb[2] = bad_y
        with pytest.raises(ContractError):
            fit_arrays(ModelSpec(family="linear"), Xb, yb)


def test_fit_empty_dataset_is_dataset_error():
    with pytest.raises(DatasetError):
        fit_arrays(ModelSpec(family="linear"), np.empty((0, 3)), np.empty(0))


def test_predict_width_mismatch_is_contract_error():
    model = fit_arrays(ModelSpec(family="linear"), np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
    with pytest.raises(ContractError):
        model.predict(np.array([1.0, 2.0]))


# --- linear ----------------------------------------------------------------------


def test_linear_two_point_exact_line():
    model = fit_arrays(ModelSpec(family="linear"), np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
    assert model.coef[0] == pytest.approx(2.0, abs=1e-12)
    assert model.intercept == pytest.approx(1.0, abs=1e-12)
    assert not model.metadata["used_pseudo_inverse"]


def test_linear_recovers_exact_coefficients_on_noise_free_data():
    rng = np.random.default_rng(4)
    X = rng.uniform(-110, -30, size=(40, 6))
    w = rng.uniform(-1, 1, size=6)
    b = 0.7
    y = X @ w + b
    model = fit_arrays(ModelSpec(family="linear"), X, y)
    assert np.max(np.abs(model.coef - w)) < 1e-9
    assert abs(model.intercept - b) < 1e-9


def test_linear_singular_design_falls_back_to_pseudo_inverse():
    rng = np.random.default_rng(8)
    col = rng.uniform(-110, -30, size=(30, 1))
    X = np.hstack([col, col])  # perfectly collinear
    y = col[:, 0] * 0.1 + 5.0
    model = fit_arrays(ModelSpec(family="linear"), X, y)
    assert model.metadata["used_pseudo_inverse"]
    assert np.max(np.abs(model.predict_raw(X) - y)) < 1e-6


def test_linear_constant_labels():
    rng = np.random.default_rng(1)
    X = rng.uniform(-110, -30, size=(20, 3))
    model = fit_arrays(ModelSpec(family="linear"), X, np.full(20, 1.3))
    assert np.allclose(model.predict(X), 1.3, atol=1e-9)


# --- knn -------------------------------------------------------------------------


def test_knn_exact_match_returns_training_label():
    rng = np.random.default_rng(5)
    X, y = regression_problem(rng, n=25)
    model = fit_arrays(ModelSpec(family="knn", k=1), X, y)
    for i in (0, 7, 24):
        assert model.predict(X[i]) == y[i]


def test_knn_matches_brute_force_mean():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        X = rng.uniform(-110, -30, size=(n, d))
        y = rng.uniform(0, 5, size=n)
        q = rng.uniform(-110, -30, size=d)
        model = fit_arrays(ModelSpec(family="knn", k=k), X, y)
        dists = [sum((xi - qi) ** 2 for xi, qi in zip(row, q)) for row in X]
        order = sorted(range(n), key=lambda i: (dists[i], i))
        expected = np.mean([y[i] for i in order[:k]])
        assert model.predict(q) == expected


def test_knn_constant_labels_exact():
    rng = np.random.default_rng(7)
    X = rng.uniform(-110, -30, size=(15, 4))
    model = fit_arrays(ModelSpec(family="knn", k=3), X, np.full(15, 1.5))
    assert np.all(model.predict(X) == 1.5)


def test_knn_k_exceeding_training_size_is_dataset_error():
    with pytest.raises(DatasetError):
        fit_arrays(ModelSpec(family="knn", k=5), np.zeros((3, 2)), np.zeros(3))


def test_knn_predict_memory_does_not_grow_with_query_count():
    rng = np.random.default_rng(8)
    X, y = regression_problem(rng, n=300, d=20)
    model = fit_arrays(ModelSpec(family="knn", k=4), X, y)

    def peak_bytes(n_queries):
        queries = rng.uniform(-110, -30, size=(n_queries, 20))
        tracemalloc.start()
        try:
            model.predict(queries)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(4000) <= 2 * peak_bytes(400)


# --- forest ----------------------------------------------------------------------


def test_forest_prediction_is_exact_mean_of_trees():
    rng = np.random.default_rng(9)
    X, y = regression_problem(rng, n=80)
    model = fit_arrays(ModelSpec(family="forest", trees=25, seed=3), X, y)
    probes = rng.uniform(-110, -30, size=(50, X.shape[1]))
    per_tree = model.tree_predictions(probes)
    assert per_tree.shape == (25, 50)
    assert np.array_equal(model.predict_raw(probes), per_tree.mean(axis=0))
    assert np.array_equal(model.predict(probes), np.maximum(per_tree.mean(axis=0), 0.0))


def test_forest_bootstrap_sample_size_equals_dataset():
    # tree i grows on n rows drawn with replacement from the i-th stream spawned off the seed
    rng = np.random.default_rng(10)
    X, y = regression_problem(rng, n=30)
    model = fit_arrays(ModelSpec(family="forest", trees=10, seed=1), X, y)
    for tree, seq in zip(model.trees, np.random.SeedSequence(1).spawn(10), strict=True):
        s = np.random.default_rng(seq).integers(0, 30, size=30)
        alone = _fit_tree(X[s], y[s])
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(tree, name), getattr(alone, name))


def test_forest_constant_labels_exact():
    # dyadic constant: averaging identical copies stays exact in floats
    rng = np.random.default_rng(12)
    X = rng.uniform(-110, -30, size=(25, 4))
    model = fit_arrays(ModelSpec(family="forest", trees=12, seed=2), X, np.full(25, 1.5))
    assert np.all(model.predict(X) == 1.5)


def test_forest_pure_training_fit_without_bootstrap():
    # a tree grown to purity on distinct rows memorizes every label
    rng = np.random.default_rng(13)
    X = rng.uniform(-110, -30, size=(30, 5))
    y = rng.uniform(0, 4, size=30)
    tree = _fit_tree(X, y)
    model = ForestModel(ModelSpec(family="forest", trees=1), np.array([0, tree.n_nodes]), tree, input_width=5)
    assert np.array_equal(model.predict_raw(X), y)


def _tree_predict(tree, X):
    """One tree's descent, all rows level by level: the walk a forest made tree by tree before one traversal."""
    node = np.zeros(len(X), dtype=np.int64)
    active = np.flatnonzero(tree.feature[node] >= 0)
    while active.size:
        nd = node[active]
        go_left = X[active, tree.feature[nd]] <= tree.threshold[nd]
        node[active] = np.where(go_left, tree.left[nd], tree.right[nd])
        active = active[tree.feature[node[active]] >= 0]
    return tree.value[node]


def _forest_oracle(model, X):
    """Raw predictions and the (trees, rows) leaf matrix, the trees summed one at a time."""
    leaves = [_tree_predict(tree, X) for tree in model.trees]
    total = leaves[0].copy()
    for tree_leaves in leaves[1:]:
        total += tree_leaves
    return total / len(leaves), np.stack(leaves)


@st.composite
def forest_cases(draw):
    """A forest of 1-40 trees grown on duplicated integer rows, queries on and between its thresholds, a scratch cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, width = draw(st.integers(2, 24)), draw(st.integers(1, 4))
    distinct = rng.integers(-4, 5, size=(draw(st.integers(1, n)), width)).astype(float)
    X = distinct[rng.integers(0, len(distinct), size=n)]  # duplicated rows
    y = np.round(rng.uniform(0, 4, size=n), draw(st.integers(0, 2)))
    model = fit_arrays(ModelSpec(family="forest", trees=draw(st.integers(1, 40)), seed=draw(st.integers(0, 99))), X, y)
    # half-integers hit every threshold, a midpoint between two integer values, with <= ties
    queries = np.vstack([X, rng.integers(-10, 11, size=(draw(st.integers(0, 20)), width)) / 2])
    cap = draw(st.integers(1, 80 * len(model.trees) * (len(queries) + 1)))
    return model, queries, cap


@settings(max_examples=80, deadline=None)
@given(case=forest_cases())
def test_forest_traversal_equals_the_tree_by_tree_oracle_bit_for_bit(case):
    model, queries, cap = case
    expected, leaves = _forest_oracle(model, queries)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "_SCRATCH_BYTES", cap)
        assert model.predict_raw(queries).tobytes() == expected.tobytes()
        for i in range(len(queries)):
            assert model.predict_raw(queries[i : i + 1]).tobytes() == expected[i : i + 1].tobytes()
        assert model.tree_predictions(queries).tobytes() == leaves.tobytes()
        assert model.tree_predictions(queries).shape == leaves.shape


def test_forest_predict_memory_does_not_grow_with_query_count():
    # 300 trees: at 80 bytes a cursor, a chunk of the scratch bound holds fewer than 400 rows
    rng = np.random.default_rng(15)
    X, y = regression_problem(rng, n=40, d=3)
    model = fit_arrays(ModelSpec(family="forest", trees=300, seed=1), X, y)

    def peak_bytes(n_queries):
        queries = rng.uniform(-110, -30, size=(n_queries, 3))
        tracemalloc.start()
        try:
            model.predict(queries)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(4000) <= 2 * peak_bytes(400)


def test_forest_deterministic_for_seed():
    rng = np.random.default_rng(14)
    X, y = regression_problem(rng, n=40)
    probes = rng.uniform(-110, -30, size=(20, X.shape[1]))
    a = fit_arrays(ModelSpec(family="forest", trees=8, seed=5), X, y)
    b = fit_arrays(ModelSpec(family="forest", trees=8, seed=5), X, y)
    assert np.array_equal(a.predict(probes), b.predict(probes))
    c = fit_arrays(ModelSpec(family="forest", trees=8, seed=6), X, y)
    assert not np.array_equal(a.predict(probes), c.predict(probes))


# --- network ----------------------------------------------------------------------


def test_network_gradients_match_central_finite_differences():
    # two hidden layers, checked on every parameter entry
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        params = net.init_params(3, (4, 3), rng)
        _, grads, _ = net.training_loss_and_grads(params, X, y)
        h = 1e-6
        for key, grad in grads.items():
            numeric = np.zeros_like(grad)
            it = np.nditer(params[key], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = params[key][idx]
                params[key][idx] = orig + h
                up = net.training_loss(params, X, y)
                params[key][idx] = orig - h
                down = net.training_loss(params, X, y)
                params[key][idx] = orig
                numeric[idx] = (up - down) / (2 * h)
            scale = np.maximum(np.abs(numeric), np.abs(grad))
            rel = np.abs(numeric - grad) / np.where(scale > 1e-8, scale, 1.0)
            assert rel.max() < 1e-4, f"{key}: worst relative gradient error {rel.max():.2e}"


def test_network_single_step_decreases_single_example_loss():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((1, 4))
        y = np.array([2.0])
        params = net.init_params(4, (6, 5), rng)
        state = net.adam_init(params)
        before = net.training_loss(params, X, y)
        _, grads, _ = net.training_loss_and_grads(params, X, y)
        net.adam_step(params, grads, state, lr=1e-4)
        assert net.training_loss(params, X, y) < before


def test_network_constant_labels_within_training_tolerance():
    rng = np.random.default_rng(3)
    X = rng.uniform(-90, -40, size=(40, 6))
    spec = ModelSpec(family="network", layers=(16, 16), epochs=300, batch_size=40,
                     learning_rate=5e-3, seed=2)
    model = fit_arrays(spec, X, np.full(40, 1.7))
    assert np.max(np.abs(model.predict(X) - 1.7)) < 0.01


def test_network_deterministic_for_seed():
    rng = np.random.default_rng(16)
    X, y = regression_problem(rng, n=50)
    probes = rng.uniform(-110, -30, size=(10, X.shape[1]))
    spec = ModelSpec(family="network", layers=(8, 8), epochs=20, seed=4)
    a = fit_arrays(spec, X, y)
    b = fit_arrays(spec, X, y)
    assert np.array_equal(a.predict(probes), b.predict(probes))


def test_network_standardizes_constant_columns_safely():
    rng = np.random.default_rng(17)
    X = rng.uniform(-110, -30, size=(30, 3))
    X[:, 1] = -99.0  # imputed column never observed
    y = rng.uniform(0, 3, size=30)
    model = fit_arrays(ModelSpec(family="network", layers=(6,), epochs=10, seed=1), X, y)
    assert np.isfinite(model.predict(X)).all()


# --- shared contract ---------------------------------------------------------------


def test_predict_clamps_negative_raw_output():
    model = LinearModel(ModelSpec(family="linear"), coef=np.zeros(2), intercept=-0.3)
    probe = np.array([-50.0, -60.0])
    assert model.predict_raw(probe) == pytest.approx(-0.3)
    assert model.predict(probe) == 0.0


def test_all_families_predictions_nonnegative():
    rng = np.random.default_rng(18)
    X, y = regression_problem(rng, n=50)
    probes = rng.uniform(-130, -10, size=(80, X.shape[1]))  # far outside training range
    specs = [
        ModelSpec(family="linear"),
        ModelSpec(family="knn", k=3),
        ModelSpec(family="forest", trees=10, seed=1),
        ModelSpec(family="network", layers=(8,), epochs=15, seed=1),
    ]
    for spec in specs:
        model = fit_arrays(spec, X, y)
        assert np.all(model.predict(probes) >= 0.0), spec.family


def test_fit_on_dataset_object(survey_dataset_xy):
    model = fit(ModelSpec(family="knn", k=4), survey_dataset_xy)
    assert model.input_width == survey_dataset_xy.X.shape[1]


def test_cross_family_determinism_spec_equality():
    assert ModelSpec(family="forest", trees=10) == ModelSpec(family="forest", trees=10)


# --- serialization ------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(family="linear"),
        ModelSpec(family="knn", k=3),
        ModelSpec(family="forest", trees=7, seed=2),
        ModelSpec(family="network", layers=(9, 5), epochs=12, seed=3),
    ],
    ids=["linear", "knn", "forest", "network"],
)
def test_model_file_roundtrip_reproduces_predictions_exactly(tmp_path, spec):
    rng = np.random.default_rng(21)
    X, y = regression_problem(rng, n=40)
    probes = rng.uniform(-110, -30, size=(25, X.shape[1]))
    model = fit_arrays(spec, X, y)
    path = tmp_path / "model.bin"
    save_model(model, path, context={"feature_names": [f"f{i}" for i in range(X.shape[1])]})
    loaded = load_model(path)
    assert loaded.spec == spec
    assert loaded.metadata["context"]["feature_names"] == [f"f{i}" for i in range(X.shape[1])]
    assert np.array_equal(loaded.predict_raw(probes), model.predict_raw(probes))
    assert type(loaded) is type(model)


def test_model_file_roundtrip_via_stream():
    rng = np.random.default_rng(22)
    X, y = regression_problem(rng, n=20)
    model = fit_arrays(ModelSpec(family="forest", trees=3, seed=1), X, y)
    buf = io.BytesIO()
    save_model(model, buf)
    buf.seek(0)
    loaded = load_model(buf)
    assert np.array_equal(loaded.predict(X), model.predict(X))


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    np.savez(open(path, "wb"), something=np.zeros(3))
    with pytest.raises(FormatError):
        load_model(path)
    # a well-formed knn archive whose spec holds a value of the wrong type
    arrays = dict(_saved_arrays("knn"))
    meta = json.loads(str(arrays.pop("meta_json")))
    for key, value in (("k", True), ("k", 2.0), ("trees", 2.5), ("layers", [2.7]), ("learning_rate", "nan"),
                       ("learning_rate", 10**400)):
        buf = io.BytesIO()
        np.savez(buf, meta_json=np.array(json.dumps({**meta, "spec": {**meta["spec"], key: value}})), **arrays)
        buf.seek(0)
        with pytest.raises(FormatError):
            load_model(buf)
    # a forest archive as format version 1 wrote it: the four removed spec knobs and a bootstrap array
    arrays = dict(_saved_arrays("forest"))
    meta = json.loads(str(arrays.pop("meta_json")))
    meta["format_version"] = 1
    meta["spec"].update(max_depth=None, min_samples_split=2, max_features=None, bootstrap=True)
    buf = io.BytesIO()
    np.savez(buf, meta_json=np.array(json.dumps(meta)), **{**arrays, "bootstrap": np.zeros((2, 12), dtype=np.int64)})
    buf.seek(0)
    with pytest.raises(FormatError, match="version 1"):
        load_model(buf)


_TINY_SPECS = {
    "linear": ModelSpec(family="linear"),
    "knn": ModelSpec(family="knn", k=2),
    "forest": ModelSpec(family="forest", trees=2),
    "network": ModelSpec(family="network", layers=(3, 2), epochs=1),
}


@functools.lru_cache(maxsize=None)
def _tiny_model(family: str):
    X, y = regression_problem(np.random.default_rng(5), n=12, d=3)
    return fit_arrays(_TINY_SPECS[family], X, y)


@functools.lru_cache(maxsize=None)
def _saved_arrays(family: str) -> dict:
    buf = io.BytesIO()
    save_model(_tiny_model(family), buf)
    buf.seek(0)
    with np.load(buf) as data:
        return {name: data[name] for name in data.files}


# small values, so that edited node links and feature indices often land in range
_SMALL_ARRAYS = hnp.arrays(
    st.sampled_from([np.int64, np.float64]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
    elements=st.integers(-3, 12),
)
_JSON_VALUES = st.none() | st.booleans() | st.integers(-2, 300) | st.text(max_size=3) | st.lists(st.integers(-1, 4))


@st.composite
def fuzzed_archives(draw):
    """A saved model of a drawn family with one to three arrays, metadata entries or spec keys edited."""
    family = draw(st.sampled_from(sorted(_TINY_SPECS)))
    arrays = {name: array.copy() for name, array in _saved_arrays(family).items()}
    meta = json.loads(str(arrays.pop("meta_json")))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "replace", "poke", "meta", "spec"]))
        if edit == "meta" or (edit == "spec" and not isinstance(meta.get("spec"), dict)):
            meta[draw(st.sampled_from(["family", "spec", "input_width", "format_version", "context"]))] = draw(
                _JSON_VALUES
            )
        elif edit == "spec":
            meta["spec"][draw(st.sampled_from([*meta["spec"], "bogus"]))] = draw(_JSON_VALUES)
        elif arrays:
            name = draw(st.sampled_from(sorted(arrays)))
            if edit == "drop":
                del arrays[name]
            elif edit == "replace":
                arrays[name] = draw(_SMALL_ARRAYS)
            elif arrays[name].size:
                cells = arrays[name].reshape(-1)
                cells[draw(st.integers(0, cells.size - 1))] = draw(st.integers(-3, 12))
    buf = io.BytesIO()
    np.savez(buf, meta_json=np.array(json.dumps(meta)), **arrays)
    buf.seek(0)
    return buf


@settings(max_examples=300, deadline=None)
@given(archive=fuzzed_archives())
def test_fuzzed_model_archive_predicts_or_is_format_error(archive):
    try:
        model = load_model(archive)
    except FormatError:
        return
    with np.errstate(all="ignore"):  # edited weights may make NaN estimates; that is not this test's concern
        assert model.predict(np.zeros((2, model.input_width))).shape == (2,)


@pytest.mark.parametrize("family", sorted(_TINY_SPECS))
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("shape", [(3,), (4, 3)], ids=["row", "matrix"])
def test_predict_non_finite_features_is_contract_error(family, bad, shape):
    features = np.full(shape, -60.0)
    features.flat[-1] = bad
    with pytest.raises(ContractError, match="non-finite"):
        _tiny_model(family).predict(features)


# --- one row alone or inside a batch ------------------------------------------------


@functools.lru_cache(maxsize=None)
def _batch_model(family: str):
    X, y = regression_problem(np.random.default_rng(6), n=40, d=3)
    spec = {
        "linear": ModelSpec(family="linear"),
        "knn": ModelSpec(family="knn", k=3),
        "forest": ModelSpec(family="forest", trees=12, seed=4),  # enough trees for pairwise and sequential sums to differ
        "network": ModelSpec(family="network", layers=(8, 8), epochs=5, seed=4),
    }[family]
    return fit_arrays(spec, X, y)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["knn", "forest"]),
    X=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)), elements=st.floats(-110, -30)),
)
def test_knn_and_forest_predict_a_row_alone_bit_for_bit_as_in_a_batch(family, X):
    model = _batch_model(family)
    batch = model.predict_raw(X)
    for i in range(len(X)):
        assert model.predict_raw(X[i : i + 1]).tobytes() == batch[i : i + 1].tobytes()


@pytest.mark.parametrize("family", ["linear", "network"])
def test_linear_and_network_rows_alone_match_the_batch_within_blas_rounding(family):
    # BLAS picks its summation order by row count, so the last bits may differ
    model = _batch_model(family)
    X = np.random.default_rng(7).uniform(-110, -30, size=(50, 3))
    alone = np.array([model.predict_raw(row) for row in X])
    np.testing.assert_allclose(alone, model.predict_raw(X), rtol=1e-12, atol=0)


def test_params_text_matches_report_layout():
    assert ModelSpec(family="linear").params_text() == "-"
    assert ModelSpec(family="forest", trees=100).params_text() == "trees=100"
    assert ModelSpec(family="knn", k=4).params_text() == "k=4"
    assert ModelSpec(family="network", layers=(128, 128, 128)).params_text() == "[128, 128, 128]"
