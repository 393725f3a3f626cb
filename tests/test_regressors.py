import dataclasses
import functools
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from daepos import ConfigError, ContractError, DatasetError, FormatError
from daepos.regressors import (
    KnnModel,
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


# Out of range, or of the wrong type: a float or a bool where an integer belongs.
_BAD_SPECS = [
    {"family": "knn", "k": 0},
    {"family": "forest", "trees": 0},
    {"family": "network", "layers": ()},
    {"family": "network", "epochs": 0},
    {"family": "knn", "k": True},
    {"family": "knn", "k": 2.0},
    {"family": "forest", "trees": 2.5},
    {"family": "network", "layers": (2.7,)},
    {"family": "network", "layers": [8, False]},
    {"family": "network", "layers": 8},
    {"family": "network", "epochs": 1.5},
    {"family": "network", "epochs": True},
    {"family": "linear", "seed": 1.0},
]


def test_spec_rejects_bad_family_parameters():
    for params in _BAD_SPECS:
        with pytest.raises(ConfigError):
            ModelSpec(**params)
    # the network's step size and batch size are constants of network.py, not settings
    assert [f.name for f in dataclasses.fields(ModelSpec)] == ["family", "k", "trees", "layers", "epochs", "seed"]
    for name in ("learning_rate", "batch_size"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            ModelSpec(family="network", **{name: 1})


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
    # the model checks it, so a model file cannot bring k above its rows either
    with pytest.raises(DatasetError, match="k=5 exceeds the 3 training records"):
        KnnModel(ModelSpec(family="knn", k=5), np.zeros((3, 2)), np.zeros(3))
    arrays = dict(_saved_arrays("knn"))
    meta = json.loads(str(arrays.pop("meta_json")))
    meta["spec"]["k"] = len(arrays["train_x"]) + 1
    buf = io.BytesIO()
    np.savez(buf, meta_json=np.array(json.dumps(meta)), **arrays)
    buf.seek(0)
    with pytest.raises(FormatError, match="knn model file: k=13 exceeds the 12 training records"):
        load_model(buf)


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


def test_forest_split_between_adjacent_floats_separates_them():
    # the midpoint of 1+eps and 1+2eps rounds up to 1+2eps; a split there would send both rows left
    lo, hi = np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)
    assert 0.5 * (lo + hi) == hi
    X, y = np.array([[lo], [hi]]), np.array([0.0, 1.0])
    # checked first: with a split at hi, _fit_tree would split its left child forever
    assert forest._best_split(X, y) == (0, lo)
    tree = _fit_tree(X, y)
    assert tree.threshold[0] == lo
    assert tree.value[tree.left[0]] == 0.0 and tree.value[tree.right[0]] == 1.0


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
    shapes = net.param_shapes(4, (6, 5))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((1, 4))
        y = np.array([2.0])
        flat, params = net.flat_views(shapes)
        net.draw_params(params, rng)
        grad_flat, grads = net.flat_views(shapes)
        state = net.adam_init(flat)
        before = net.training_loss(params, X, y)
        net.training_loss_and_grads(params, X, y, grads)
        net.adam_step(flat, grad_flat, state)
        assert net.training_loss(params, X, y) < before


# The dict-based training the flat buffers replaced: one new array per
# parameter, gradient and moment on every step.


def _oracle_init_params(input_dim, layers, rng):
    params = {}
    fan_in = input_dim
    for i, width in enumerate(layers):
        params[f"W{i}"] = rng.standard_normal((fan_in, width)) * np.sqrt(2.0 / fan_in)
        params[f"gamma{i}"] = np.ones(width)
        params[f"beta{i}"] = np.zeros(width)
        fan_in = width
    params["W_out"] = rng.standard_normal((fan_in, 1)) * np.sqrt(1.0 / fan_in)
    params["b_out"] = np.zeros(1)
    return params


def _oracle_forward(params, X):
    h = X
    caches = []
    stats = []
    for i in range((len(params) - 2) // 3):  # W, gamma and beta per hidden layer
        z = h @ params[f"W{i}"]
        mu = z.mean(axis=0)
        var = z.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + net.BN_EPS)
        z_hat = (z - mu) * inv_std
        a = params[f"gamma{i}"] * z_hat + params[f"beta{i}"]
        caches.append((h, z_hat, inv_std, a))
        stats.append((mu, var))
        h = np.maximum(a, 0.0)
    return (h @ params["W_out"] + params["b_out"]).ravel(), h, caches, stats


def _oracle_grads(params, X, y):
    out, h_last, caches, _ = _oracle_forward(params, X)
    m = len(y)
    grads = {}
    d_out = (2.0 / m) * (out - y)
    grads["W_out"] = h_last.T @ d_out[:, None]
    grads["b_out"] = np.array([d_out.sum()])
    d_h = d_out[:, None] @ params["W_out"].T
    for i in reversed(range(len(caches))):
        h_prev, z_hat, inv_std, a = caches[i]
        d_a = d_h * (a > 0.0)
        grads[f"gamma{i}"] = (d_a * z_hat).sum(axis=0)
        grads[f"beta{i}"] = d_a.sum(axis=0)
        d_zhat = d_a * params[f"gamma{i}"]
        d_z = (inv_std / m) * (m * d_zhat - d_zhat.sum(axis=0) - z_hat * (d_zhat * z_hat).sum(axis=0))
        grads[f"W{i}"] = h_prev.T @ d_z
        d_h = d_z @ params[f"W{i}"].T
    return grads


def _oracle_adam_init(params):
    return {"m": {k: np.zeros_like(v) for k, v in params.items()},
            "v": {k: np.zeros_like(v) for k, v in params.items()}, "t": 0}


def _oracle_adam_step(params, grads, state, lr):
    state["t"] += 1
    t = state["t"]
    for key, g in grads.items():
        state["m"][key] = net.ADAM_BETA1 * state["m"][key] + (1 - net.ADAM_BETA1) * g
        state["v"][key] = net.ADAM_BETA2 * state["v"][key] + (1 - net.ADAM_BETA2) * g * g
        m_hat = state["m"][key] / (1 - net.ADAM_BETA1**t)
        v_hat = state["v"][key] / (1 - net.ADAM_BETA2**t)
        params[key] = params[key] - lr * m_hat / (np.sqrt(v_hat) + net.ADAM_EPS)


def _oracle_fit_network(spec, X, y):
    """(params, running, scaler mean, scaler std) as the dict-based fit made them."""
    rng = np.random.default_rng(spec.seed)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Xs = (X - mean) / std
    params = _oracle_init_params(X.shape[1], spec.layers, rng)
    params["b_out"] = np.array([y.mean()])
    state = _oracle_adam_init(params)
    n = len(Xs)
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, net.BATCH_SIZE):
            batch = perm[start : start + net.BATCH_SIZE]
            _oracle_adam_step(params, _oracle_grads(params, Xs[batch], y[batch]), state, net.LEARNING_RATE)
    _, _, _, stats = _oracle_forward(params, Xs)
    running = {}
    for i, (mu, var) in enumerate(stats):
        running[f"mean{i}"] = mu
        running[f"var{i}"] = var
    return params, running, mean, std


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 70),
    width=st.integers(1, 5),
    layers=st.one_of(st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
                     st.sampled_from([(160, 96), (200, 160)])),
    epochs=st.integers(1, 3),
)
# with batches of 32: one partial batch, one full and one partial, two full;
# (160, 96) and (200, 160) on 5 inputs hold one and two Adam chunks plus a remainder
@example(seed=0, n=23, width=5, layers=(160, 96), epochs=2)
@example(seed=1, n=45, width=5, layers=(200, 160), epochs=2)
@example(seed=2, n=64, width=3, layers=(8, 8), epochs=3)
def test_network_fit_equals_the_dict_based_oracle_bit_for_bit(seed, n, width, layers, epochs):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-99, -30, size=(n, width))
    X[:, 0] = -99.0 if seed % 3 == 0 else X[:, 0]  # sometimes a constant column
    y = rng.gamma(2.0, 2.0, size=n)
    spec = ModelSpec(family="network", layers=layers, epochs=epochs, seed=seed % 1000)
    model = net.fit_network(spec, X, y)
    params, running, mean, std = _oracle_fit_network(spec, X, y)
    assert list(model.params) == list(params) and list(model.running) == list(running)
    for got, want in ((model.params, params), (model.running, running)):
        for key in want:
            assert got[key].shape == want[key].shape and got[key].tobytes() == want[key].tobytes(), key
    oracle = net.NetworkModel(spec, params, running, mean, std, input_width=width)
    assert model.predict_raw(X).tobytes() == oracle.predict_raw(X).tobytes()


def test_chunked_adam_step_equals_the_dict_based_oracle_bit_for_bit():
    rng = np.random.default_rng(23)
    size = 2 * net.ADAM_CHUNK + 1237  # two whole chunks and a remainder
    flat = rng.standard_normal(size)
    expected = {"p": flat.copy()}
    state, oracle_state = net.adam_init(flat), _oracle_adam_init(expected)
    for _ in range(6):
        grad = rng.standard_normal(size) * rng.choice([1e-9, 1.0, 1e5], size=size)
        net.adam_step(flat, grad, state)
        _oracle_adam_step(expected, {"p": grad}, oracle_state, net.LEARNING_RATE)
        assert flat.tobytes() == expected["p"].tobytes()
        assert state["m"].tobytes() == oracle_state["m"]["p"].tobytes()
        assert state["v"].tobytes() == oracle_state["v"]["p"].tobytes()


def test_network_fit_memory_stays_below_six_times_the_parameters():
    # the dict-based fit peaked at 7.5x: per-key Adam temporaries, and every
    # layer's activations for the full set while the moments were alive
    rng = np.random.default_rng(24)
    X = rng.uniform(-99, -30, size=(281, 37))
    y = rng.gamma(2.0, 2.0, size=281)
    spec = ModelSpec(family="network", layers=(256, 512, 256), epochs=1)
    tracemalloc.start()
    try:
        model = net.fit_network(spec, X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * sum(value.nbytes for value in model.params.values())


def test_diverged_network_fit_is_a_dataset_error():
    # only training values near the float range can drive the fixed-step fit to non-finite values
    rng = np.random.default_rng(25)
    X, y = regression_problem(rng, n=40)
    wide = X.copy()
    wide[:, 0] = 0.0
    wide[:2, 0] = 1.7e308, -1.7e308  # mean 0 but std inf: the column scales to 0 and trains finite
    spec = ModelSpec(family="network", layers=(8, 8), epochs=5)
    for features, labels in ((X, np.full(40, 1.7e308)), (wide, y)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any numpy overflow warning fails the test
            with pytest.raises(DatasetError, match="non-finite") as caught:
                net.fit_network(spec, features, labels)
        assert "learning_rate" not in str(caught.value)


def test_network_constant_labels_within_training_tolerance():
    rng = np.random.default_rng(3)
    X = rng.uniform(-90, -40, size=(40, 6))
    spec = ModelSpec(family="network", layers=(16, 16), epochs=3000, seed=2)
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
def test_model_file_roundtrip_reproduces_predictions_exactly(tmp_path, spec, survey_dataset_plain, survey_dataset_xy):
    for dataset in (survey_dataset_plain, survey_dataset_xy):
        probes = np.random.default_rng(21).uniform(-110, -30, size=(25, dataset.X.shape[1]))
        model = fit(spec, dataset)
        # fit stamps the training context: the dataset's AP columns and variant
        context = {"ap_ids": list(dataset.registry.aps), "variant": dataset.variant}
        assert model.metadata["context"] == context
        path = tmp_path / f"{dataset.variant}.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == spec
        assert loaded.metadata["context"] == context
        assert np.array_equal(loaded.predict_raw(probes), model.predict_raw(probes))
        assert type(loaded) is type(model)
        # the family is the spec's, and the context is stated once, inside the metadata
        with np.load(path) as data:
            meta = json.loads(str(data["meta_json"]))
        assert sorted(meta) == ["format_version", "input_width", "metadata", "spec"]
        # a loaded model saves to the same bytes
        again = tmp_path / f"{dataset.variant}-again.bin"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def test_model_file_roundtrip_via_stream():
    rng = np.random.default_rng(22)
    X, y = regression_problem(rng, n=20)
    model = fit_arrays(ModelSpec(family="forest", trees=3, seed=1), X, y)
    model.metadata["context"] = _context(X.shape[1])
    buf = io.BytesIO()
    save_model(model, buf)
    buf.seek(0)
    loaded = load_model(buf)
    assert np.array_equal(loaded.predict(X), model.predict(X))


def _context(width: int) -> dict:
    """A plain-variant training context for a ``fit_arrays`` model of ``width`` columns."""
    return {"ap_ids": [f"ap{i}" for i in range(width)], "variant": "plain"}


@pytest.mark.parametrize(
    "context",
    [None, {"ap_ids": ["ap0", "ap1"], "variant": "plain"}, {"ap_ids": ["ap0", "ap1", "ap2"], "variant": "xyz"}],
    ids=["none", "width", "variant"],
)
def test_save_model_refuses_a_model_without_a_valid_context(tmp_path, context):
    # save_model writes only what load_model accepts, so a refused model leaves no file and no bytes
    X, y = regression_problem(np.random.default_rng(23), n=12, d=3)
    model = fit_arrays(ModelSpec(family="linear"), X, y)
    if context is not None:
        model.metadata["context"] = context
    path, buf = tmp_path / "model.bin", io.BytesIO()
    for dest in (path, buf):
        with pytest.raises(FormatError, match="model (context|width)"):
            save_model(model, dest)
    assert not path.exists()
    assert buf.getvalue() == b""


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    np.savez(open(path, "wb"), something=np.zeros(3))
    with pytest.raises(FormatError):
        load_model(path)
    # a well-formed knn archive whose spec holds a value of the wrong type, or a key it no longer has
    arrays = dict(_saved_arrays("knn"))
    meta = json.loads(str(arrays.pop("meta_json")))
    for key, value in (("k", True), ("k", 2.0), ("trees", 2.5), ("layers", [2.7]), ("learning_rate", 1e-3),
                       ("batch_size", 32)):
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
    model = fit_arrays(_TINY_SPECS[family], X, y)
    model.metadata["context"] = _context(X.shape[1])
    return model


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
            meta[draw(st.sampled_from(["spec", "input_width", "format_version", "metadata"]))] = draw(
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
