"""Evaluation of error estimates against true positioning errors.

The central quantity is the signed estimation error ``delta_est -
delta_pos``: positive values mean the model was pessimistic, negative
values optimistic.  Reports carry MAE/MSE of the signed error, the Pearson
correlation between true and estimated errors and the raw pairs; the ECDF
of the signed error is written from the pairs for external plotting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvio import csv_cell, line_writer
from .dae import DaeDataset, feature_names
from .errors import ConfigError, ContractError, DatasetError
from .regressors import ErrorRegressor, ModelSpec, fit_arrays

PROTOCOLS = ("cross_fit", "holdout")


@dataclass(frozen=True)
class EvaluationReport:
    """Metrics of one model's error estimates, plus the pairs they came from.

    ``delta_pos[i]`` is a record's true positioning error and
    ``delta_est[i]`` the model's estimate of it, both in meters.
    """

    label: str
    mae: float
    mse: float
    pearson: float | None  # None when undefined (fewer than 2 pairs or zero variance)
    delta_pos: np.ndarray
    delta_est: np.ndarray
    parameters: str = "-"
    protocol: str = ""

    def signed_errors(self) -> np.ndarray:
        """``delta_est - delta_pos``: positive = overestimate, negative = underestimate."""
        return self.delta_est - self.delta_pos

    def summary_text(self) -> str:
        """``MAE=… MSE=… pearson=…`` to three decimals, with ``pearson=undefined`` when it is."""
        pearson = "undefined" if self.pearson is None else f"{self.pearson:.3f}"
        return f"MAE={self.mae:.3f} MSE={self.mse:.3f} pearson={pearson}"


def summarize(delta_pos, delta_est, label: str = "") -> EvaluationReport:
    """MAE/MSE/Pearson of true versus estimated errors."""
    delta_pos = np.asarray(delta_pos, dtype=float)
    delta_est = np.asarray(delta_est, dtype=float)
    if delta_pos.ndim != 1 or delta_est.shape != delta_pos.shape:
        raise ContractError(
            f"need one estimate per true error, got shapes {delta_pos.shape} and {delta_est.shape}"
        )
    if not len(delta_pos):
        raise DatasetError("cannot summarize an empty set of error pairs")
    if not (np.isfinite(delta_pos).all() and np.isfinite(delta_est).all()):
        raise ContractError("true and estimated errors must be finite")
    if (delta_pos < 0.0).any():
        raise ContractError(f"true positioning errors cannot be negative, got {delta_pos.min()}")
    errors = delta_est - delta_pos

    pearson = None
    if len(errors) >= 2 and delta_pos.std() > 0 and delta_est.std() > 0:
        pearson = float(np.corrcoef(delta_pos, delta_est)[0, 1])
    return EvaluationReport(
        label=label,
        mae=float(np.mean(np.abs(errors))),
        mse=float(np.mean(errors**2)),
        pearson=pearson,
        delta_pos=delta_pos,
        delta_est=delta_est,
    )


def _fold_seed(base_seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([base_seed, fold]).generate_state(1)[0])


def _cross_fit_folds(dataset: DaeDataset) -> list[int]:
    folds = np.unique(dataset.folds).tolist()
    if len(folds) < 2:
        raise DatasetError("cross_fit evaluation needs a dataset with at least 2 folds")
    if folds[0] < 0:
        raise DatasetError("cross_fit evaluation is undefined for externally labeled records")
    return folds


def _check_protocol(protocol: str, holdout: DaeDataset | None) -> None:
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown evaluation protocol {protocol!r}; expected one of {PROTOCOLS}")
    if protocol == "holdout":
        if holdout is None:
            raise ContractError("holdout protocol requires the external records")
        if not len(holdout):
            raise DatasetError("holdout record set is empty")


def fit_tasks(
    spec: ModelSpec, dataset: DaeDataset, protocol: str = "cross_fit", holdout: DaeDataset | None = None
) -> list[tuple]:
    """The independent fits behind one evaluation, each as ``fit_and_predict`` arguments.

    ``cross_fit`` gives one ``(fold spec, X, y, test mask, None)`` task per
    fold, in fold order; ``holdout`` gives one ``(spec, X, y, None,
    external features)`` task that fits ``spec`` on the whole dataset.
    Every task holds references to the datasets' own arrays and no row
    copies: ``fit_and_predict`` makes a fold's rows when it runs.
    """
    _check_protocol(protocol, holdout)
    X, y = dataset.features(), dataset.labels()
    if protocol == "holdout":
        return [(spec, X, y, None, holdout.features())]
    return [
        (dataclasses.replace(spec, seed=_fold_seed(spec.seed, fold)), X, y, dataset.folds == fold, None)
        for fold in _cross_fit_folds(dataset)
    ]


def fit_and_predict(spec: ModelSpec, X, y, test, X_test) -> np.ndarray:
    """Run one task of ``fit_tasks``: fit ``spec`` and return its estimates.

    With a boolean ``test`` mask, the fit uses the rows of ``(X, y)``
    outside it and predicts the rows in it; with ``test`` None, it uses
    every row and predicts ``X_test``.
    """
    if test is None:
        return fit_arrays(spec, X, y).predict(X_test)
    return fit_arrays(spec, X[~test], y[~test]).predict(X[test])


def evaluate_model(
    model: ErrorRegressor | ModelSpec,
    dataset: DaeDataset,
    protocol: str = "cross_fit",
    holdout: DaeDataset | None = None,
    label: str | None = None,
    estimates: Sequence[np.ndarray] | None = None,
) -> EvaluationReport:
    """Evaluate a model spec or fitted model on an error-regression dataset.

    ``cross_fit`` refits the spec once per fold of ``dataset`` so that no
    record is ever predicted by a model that saw it; every record yields
    exactly one pair.  ``holdout`` evaluates a model fitted on the full
    dataset against external records (pass a model from ``fit`` or
    ``load_model`` to reuse it, or a spec to fit here).  ``estimates``, the outputs of the
    ``fit_tasks(spec, dataset, protocol, holdout)`` tasks in task order,
    stand in for the fits when they were run elsewhere.
    """
    spec = model if isinstance(model, ModelSpec) else model.spec
    if label is None:
        label = spec.default_label()
    _check_protocol(protocol, holdout)
    width = dataset.X.shape[1]
    if isinstance(model, ErrorRegressor):
        if model.input_width != width:  # a refit would hide it
            raise ContractError(f"feature width mismatch: model expects {model.input_width}, dataset has {width}")
        context = model.metadata["context"]  # fit stamped it, load_model checked it
        names = feature_names(context["ap_ids"], context["variant"])
        for role, data in (("dataset", dataset), ("holdout", holdout)):  # a holdout of another width fails in predict
            if data is not None and data.X.shape[1] == width and data.feature_names() != names:
                raise ContractError(f"feature columns differ: model has {names}, {role} has {data.feature_names()}")

    if estimates is None:
        if protocol == "holdout" and isinstance(model, ErrorRegressor):
            estimates = [model.predict(holdout.features())]
        else:
            estimates = [fit_and_predict(*task) for task in fit_tasks(spec, dataset, protocol, holdout)]
    if protocol == "cross_fit":
        delta_pos = dataset.labels()
        delta_est = np.empty(len(delta_pos))
        for fold, fold_estimates in zip(_cross_fit_folds(dataset), estimates, strict=True):
            delta_est[dataset.folds == fold] = fold_estimates
    else:
        delta_pos, (delta_est,) = holdout.labels(), estimates

    report = summarize(delta_pos, delta_est, label=label)
    return dataclasses.replace(report, parameters=spec.params_text(), protocol=protocol)


# ---------------------------------------------------------------------------
# Plot-data and report emission


def write_summary_csv(reports: Sequence[EvaluationReport], dest, comment: str | None = None) -> None:
    """Row-per-model summary: algorithm,parameters,MAE,MSE."""
    with line_writer(dest, comment) as out:
        out.write("algorithm,parameters,MAE,MSE\n")
        out.writelines(f"{csv_cell(r.label)},{csv_cell(r.parameters)},{r.mae:.3f},{r.mse:.3f}\n" for r in reports)


def write_pairs_csv(report: EvaluationReport, dest, comment: str | None = None) -> None:
    with line_writer(dest, comment) as out:
        out.write("delta_pos,delta_est\n")
        out.writelines(f"{pos!r},{est!r}\n" for pos, est in zip(report.delta_pos.tolist(), report.delta_est.tolist()))


def write_ecdf_csv(report: EvaluationReport, dest, comment: str | None = None) -> None:
    """ECDF of the signed errors: each sorted value with its cumulative fraction."""
    ordered = np.sort(report.signed_errors())
    fractions = np.arange(1, len(ordered) + 1) / len(ordered)
    with line_writer(dest, comment) as out:
        out.write("signed_error,fraction\n")
        out.writelines(f"{error!r},{fraction!r}\n" for error, fraction in zip(ordered.tolist(), fractions.tolist()))
