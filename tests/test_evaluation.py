import io
import math

import numpy as np
import pytest

from daepos import (
    ContractError,
    DaeDataset,
    DatasetError,
    evaluate_model,
    summarize,
)
from daepos.evaluation import write_ecdf_csv, write_pairs_csv, write_summary_csv
from daepos.regressors import ModelSpec, fit


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


def test_summarize_hand_computed_mae_mse():
    report = summarize([1.0, 2.0], [2.0, 1.0])  # signed errors +1, -1
    assert report.mae == 1.0
    assert report.mse == 1.0


def test_summarize_perfect_estimates_degenerate_ecdf():
    report = summarize([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])
    assert report.mae == 0.0 and report.mse == 0.0
    assert all(value == 0.0 for value, _ in report.ecdf)
    assert report.ecdf[-1][1] == 1.0


def test_summarize_empty_is_dataset_error():
    with pytest.raises(DatasetError):
        summarize([], [])


def test_summarize_pearson_undefined_for_zero_variance():
    report = summarize([1.0, 1.0, 1.0], [0.5, 0.7, 0.9])
    assert report.pearson is None
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
    values = [v for v, _ in report.ecdf]
    fractions = [f for _, f in report.ecdf]
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


# --- emission ----------------------------------------------------------------------


def test_summary_csv_layout():
    report = summarize([1.0, 2.0], [1.5, 1.5], label="RF")
    import dataclasses

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
