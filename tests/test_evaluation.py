import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import FLOATS, TEXT_CELLS, csv_text
from daepos import (
    ContractError,
    DaeDataset,
    DatasetError,
    evaluate_model,
    summarize,
)
from daepos.dae import EXTERNAL_FOLD, make_fold_plan
from daepos.evaluation import (
    PROTOCOLS,
    EvaluationReport,
    _fold_seed,
    fit_and_predict,
    fit_tasks,
    write_ecdf_csv,
    write_pairs_csv,
    write_summary_csv,
)
from daepos.pipeline import _SECONDS_PER_UNIT, POOLED_FAMILIES, _task_cost, _write_metrics_csv
from daepos.regressors import ModelSpec, fit, fit_arrays
from daepos.signatures import ApRegistry


# --- signed error -----------------------------------------------------------------


def test_dae_error_perfect_estimate_is_zero():
    assert summarize([1.0], [1.0]).signed_errors().tolist() == [0.0]


def test_dae_error_signs():
    signed = summarize([1.0, 1.0], [1.5, 0.2]).signed_errors()
    assert signed.tolist() == pytest.approx([0.5, -0.8])


def test_error_pair_rejects_negative_true_error():
    with pytest.raises(ContractError):
        summarize([1.0, -0.1], [0.5, 0.5])


def test_summarize_rejects_non_finite_and_mismatched_pairs():
    for delta_pos, delta_est in (([1.0, math.nan], [0.5, 0.5]), ([1.0], [math.inf]), ([1.0, 2.0], [0.5])):
        with pytest.raises(ContractError):
            summarize(delta_pos, delta_est)


# --- summarize --------------------------------------------------------------------


def _ecdf_rows(report) -> list[tuple[float, float]]:
    """The ``(signed error, fraction)`` rows :func:`write_ecdf_csv` writes for ``report``."""
    buf = io.StringIO()
    write_ecdf_csv(report, buf)
    return [tuple(float(cell) for cell in line.split(",")) for line in buf.getvalue().splitlines()[1:]]


def test_summarize_hand_computed_mae_mse():
    report = summarize([1.0, 2.0], [2.0, 1.0])  # signed errors +1, -1
    assert report.mae == 1.0
    assert report.mse == 1.0


def test_summarize_perfect_estimates_degenerate_ecdf():
    report = summarize([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])
    assert report.mae == 0.0 and report.mse == 0.0
    assert report.summary_text() == "MAE=0.000 MSE=0.000 pearson=1.000"
    ecdf = _ecdf_rows(report)
    assert all(value == 0.0 for value, _ in ecdf)
    assert ecdf[-1][1] == 1.0


def test_summarize_empty_is_dataset_error():
    with pytest.raises(DatasetError):
        summarize([], [])


def test_summarize_pearson_undefined_for_zero_variance():
    report = summarize([1.0, 1.0, 1.0], [0.5, 0.7, 0.9])
    assert report.pearson is None
    assert report.summary_text() == "MAE=0.300 MSE=0.117 pearson=undefined"
    single = summarize([1.0], [0.5])
    assert single.pearson is None


def test_summarize_pearson_affine_invariance():
    rng = np.random.default_rng(3)
    true_err = rng.uniform(0, 3, size=40)
    est = np.abs(true_err + rng.normal(0, 0.5, size=40))
    base = summarize(true_err, est).pearson
    scaled = summarize(2.0 * true_err + 0.5, 3.0 * est + 1.0).pearson
    assert scaled == pytest.approx(base, abs=1e-12)


def test_summarize_mae_never_exceeds_rmse():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        report = summarize(rng.uniform(0, 4, n), rng.uniform(0, 4, n))
        assert report.mae <= math.sqrt(report.mse) + 1e-12


def test_ecdf_nondecreasing_and_reaches_one():
    rng = np.random.default_rng(5)
    report = summarize(rng.uniform(0, 4, 30), rng.uniform(0, 4, 30))
    ecdf = _ecdf_rows(report)
    values = [v for v, _ in ecdf]
    fractions = [f for _, f in ecdf]
    assert values == sorted(values)
    assert fractions == sorted(fractions)
    assert fractions[0] == pytest.approx(1 / 30)
    assert fractions[-1] == 1.0
    assert max(values) == values[-1]


# --- evaluate_model ----------------------------------------------------------------


def test_cross_fit_yields_one_pair_per_record(survey_dataset_plain):
    report = evaluate_model(ModelSpec(family="knn", k=4), survey_dataset_plain, label="kNN")
    assert len(report.delta_pos) == len(report.delta_est) == len(survey_dataset_plain)
    assert report.protocol == "cross_fit"
    assert report.parameters == "k=4"


def test_cross_fit_memorizer_has_nonzero_error(survey_dataset_plain):
    # a k=1 memorizer would score 0 if it could see its own record;
    # out-of-fit evaluation must leave real error
    report = evaluate_model(ModelSpec(family="knn", k=1), survey_dataset_plain)
    assert report.mae > 0.0


def test_cross_fit_deterministic(survey_dataset_plain):
    spec = ModelSpec(family="forest", trees=10, seed=7)
    a = evaluate_model(spec, survey_dataset_plain)
    b = evaluate_model(spec, survey_dataset_plain)
    assert a.mae == b.mae and a.mse == b.mse
    assert a.signed_errors().tolist() == b.signed_errors().tolist()


def test_cross_fit_estimates_nonnegative_by_default(survey_dataset_plain):
    report = evaluate_model(ModelSpec(family="linear"), survey_dataset_plain)
    assert (report.delta_est >= 0).all()


def test_holdout_uses_fitted_model(survey_dataset_plain, survey_dataset_xy):
    model = fit(ModelSpec(family="knn", k=4), survey_dataset_plain)
    ds = survey_dataset_plain
    holdout = DaeDataset(
        X=ds.X[:20], y=ds.y[:20], point_ids=ds.point_ids[:20], folds=ds.folds[:20],
        variant=ds.variant, registry=ds.registry,
    )
    report = evaluate_model(model, survey_dataset_plain, protocol="holdout", holdout=holdout)
    assert len(report.delta_pos) == 20
    assert report.protocol == "holdout"
    # these holdout records were in the training set of a memorizing model
    knn1 = fit(ModelSpec(family="knn", k=1), survey_dataset_plain)
    memorized = evaluate_model(knn1, survey_dataset_plain, protocol="holdout", holdout=holdout)
    assert memorized.mae == 0.0


def test_holdout_width_mismatch_is_contract_error(survey_dataset_plain, survey_dataset_xy):
    model = fit(ModelSpec(family="knn", k=4), survey_dataset_plain)
    with pytest.raises(ContractError):
        evaluate_model(model, survey_dataset_plain, protocol="holdout", holdout=survey_dataset_xy)


def test_holdout_requires_records(survey_dataset_plain):
    with pytest.raises(ContractError):
        evaluate_model(ModelSpec(family="linear"), survey_dataset_plain, protocol="holdout")


def test_unknown_protocol_rejected(survey_dataset_plain):
    with pytest.raises(Exception):
        evaluate_model(ModelSpec(family="linear"), survey_dataset_plain, protocol="bootstrap")


# --- fit tasks ---------------------------------------------------------------------


def _head(dataset: DaeDataset, n: int) -> DaeDataset:
    """The first ``n`` records of ``dataset`` as external records."""
    return DaeDataset(
        X=dataset.X[:n], y=dataset.y[:n], point_ids=dataset.point_ids[:n], folds=[EXTERNAL_FOLD] * n,
        variant=dataset.variant, registry=dataset.registry,
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fit_tasks_reference_the_dataset_arrays_and_copy_no_rows(survey_dataset_plain, protocol):
    dataset = survey_dataset_plain
    holdout = _head(dataset, 20) if protocol == "holdout" else None
    tasks = fit_tasks(ModelSpec(family="forest", trees=3), dataset, protocol, holdout)
    assert len(tasks) == (1 if holdout else len(np.unique(dataset.folds)))
    for _, X, y, test, X_test in tasks:
        assert np.shares_memory(X, dataset.X) and np.shares_memory(y, dataset.y)
        if holdout:
            assert test is None and np.shares_memory(X_test, holdout.X)
        else:
            assert X_test is None and test.dtype == bool and test.shape == (len(dataset),)


def _copied_tasks(spec, dataset, protocol, holdout):
    """The fit tasks as row copies, ``(spec, training rows, their labels, test rows)``: the oracle."""
    X, y = dataset.features(), dataset.labels()
    if protocol == "holdout":
        return [(spec, X, y, holdout.features())]
    tasks = []
    for fold in np.unique(dataset.folds).tolist():
        test = dataset.folds == fold
        fold_spec = dataclasses.replace(spec, seed=_fold_seed(spec.seed, fold))
        tasks.append((fold_spec, X[~test], y[~test], X[test]))
    return tasks


def _copied_task_cost(task) -> float:
    """Longest-first scheduling cost of a row-copy task: the oracle of ``pipeline._task_cost``."""
    spec, X, _, _ = task
    rows, width = X.shape
    if spec.family == "forest":
        return _SECONDS_PER_UNIT["forest"] * spec.trees * rows
    widths = (width, *spec.layers, 1)
    weights = sum(a * b for a, b in zip(widths, widths[1:]))
    return _SECONDS_PER_UNIT["network"] * spec.epochs * rows * weights


@st.composite
def small_datasets(draw) -> tuple[DaeDataset, DaeDataset]:
    """A random dataset with a random fold plan, and random external records of its width."""
    n, n_folds, width = draw(st.integers(6, 24)), draw(st.integers(2, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    registry = ApRegistry(aps=tuple(f"ap{j}" for j in range(width)), availability=(1,) * width)
    plan = make_fold_plan(n, n_folds, draw(st.integers(0, 99)))

    def dataset(rows, folds):
        return DaeDataset(
            X=rng.uniform(-100.0, -30.0, (rows, width)), y=rng.uniform(0.0, 10.0, rows),
            point_ids=[f"p{i}" for i in range(rows)], folds=folds, variant="plain", registry=registry,
        )

    external = draw(st.integers(1, 8))
    return dataset(n, plan.assignment), dataset(external, [EXTERNAL_FOLD] * external)


SPECS = st.one_of(
    st.just(ModelSpec(family="linear")),
    st.builds(ModelSpec, family=st.just("knn"), k=st.integers(1, 3)),
    st.builds(ModelSpec, family=st.just("forest"), trees=st.integers(1, 4), seed=st.integers(0, 99)),
    st.builds(ModelSpec, family=st.just("network"), layers=st.sampled_from([(3,), (4, 2)]),
              epochs=st.integers(1, 3), seed=st.integers(0, 99)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(datasets=small_datasets(), spec=SPECS, protocol=st.sampled_from(PROTOCOLS))
def test_fit_and_predict_matches_row_copy_tasks_bit_for_bit(datasets, spec, protocol):
    dataset, holdout = datasets
    tasks = fit_tasks(spec, dataset, protocol, holdout)
    copied = _copied_tasks(spec, dataset, protocol, holdout)
    assert len(tasks) == len(copied)
    for task, (fold_spec, X, y, X_test) in zip(tasks, copied):
        assert task[0] == fold_spec
        assert fit_and_predict(*task).tobytes() == fit_arrays(fold_spec, X, y).predict(X_test).tobytes()
        if spec.family in POOLED_FAMILIES:  # the same costs give the same longest-first submission order
            assert _task_cost(task) == _copied_task_cost((fold_spec, X, y, X_test))


# --- emission ----------------------------------------------------------------------


def test_summary_csv_layout():
    report = summarize([1.0, 2.0], [1.5, 1.5], label="RF")
    report = dataclasses.replace(report, parameters="trees=100")
    buf = io.StringIO()
    write_summary_csv([report], buf, comment="config_hash=abc seed=0")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# config_hash=abc seed=0"
    assert lines[1] == "algorithm,parameters,MAE,MSE"
    assert lines[2].startswith("RF,trees=100,")


def test_pairs_and_ecdf_csv_roundtrip_floats():
    report = summarize([1.25, 2.5], [1.0, 3.0])
    pairs_buf, ecdf_buf = io.StringIO(), io.StringIO()
    write_pairs_csv(report, pairs_buf)
    write_ecdf_csv(report, ecdf_buf)
    pairs_lines = pairs_buf.getvalue().splitlines()
    assert pairs_lines[0] == "delta_pos,delta_est"
    assert [float(x) for x in pairs_lines[1].split(",")] == [1.25, 1.0]
    ecdf_lines = ecdf_buf.getvalue().splitlines()
    assert ecdf_lines[0] == "signed_error,fraction"
    assert [float(x) for x in ecdf_lines[1].split(",")] == [-0.25, 0.5]


# --- every writer against csv.writer ------------------------------------------------


@st.composite
def reports(draw):
    """Reports whose text fields need quoting, with signed zeros, subnormals and 1e300 in every float."""
    n = draw(st.integers(1, 5))
    pairs = [draw(st.lists(FLOATS, min_size=n, max_size=n)) for _ in range(2)]
    return EvaluationReport(
        label=draw(TEXT_CELLS), mae=draw(FLOATS), mse=draw(FLOATS), pearson=draw(st.none() | FLOATS),
        delta_pos=np.array(pairs[0]), delta_est=np.array(pairs[1]),
        parameters=draw(TEXT_CELLS), protocol=draw(TEXT_CELLS),
    )


@settings(max_examples=100, deadline=None)
@given(lineup=st.lists(reports(), min_size=1, max_size=3), comment=st.sampled_from([None, "config_hash=x seed=0"]))
def test_summary_and_metrics_files_are_the_csv_writers_bytes(lineup, comment):
    summary, metrics = io.StringIO(), io.StringIO()
    write_summary_csv(lineup, summary, comment=comment)
    assert summary.getvalue() == csv_text(
        [["algorithm", "parameters", "MAE", "MSE"],
         *([rep.label, rep.parameters, f"{rep.mae:.3f}", f"{rep.mse:.3f}"] for rep in lineup)], comment)
    _write_metrics_csv(lineup, metrics, comment)
    assert metrics.getvalue() == csv_text(
        [["algorithm", "parameters", "protocol", "MAE", "MSE", "pearson", "n_pairs"],
         *([rep.label, rep.parameters, rep.protocol, repr(rep.mae), repr(rep.mse),
            "" if rep.pearson is None else repr(rep.pearson), len(rep.delta_pos)] for rep in lineup)], comment)


@settings(max_examples=100, deadline=None)
@given(report=reports(), comment=st.sampled_from([None, "config_hash=x seed=0"]))
def test_pairs_and_ecdf_files_are_the_csv_writers_bytes(report, comment):
    pairs, ecdf = io.StringIO(), io.StringIO()
    write_pairs_csv(report, pairs, comment=comment)
    write_ecdf_csv(report, ecdf, comment=comment)
    pair_rows = zip(map(repr, report.delta_pos.tolist()), map(repr, report.delta_est.tolist()))
    assert pairs.getvalue() == csv_text([["delta_pos", "delta_est"], *pair_rows], comment)
    ordered = np.sort(report.signed_errors())
    fractions = np.arange(1, len(ordered) + 1) / len(ordered)
    ecdf_rows = zip(map(repr, ordered.tolist()), map(repr, fractions.tolist()))
    assert ecdf.getvalue() == csv_text([["signed_error", "fraction"], *ecdf_rows], comment)
