"""Evaluation of error estimates against true positioning errors.

The central quantity is the signed estimation error ``delta_est -
delta_pos``: positive values mean the model was pessimistic, negative
values optimistic.  Reports carry MAE/MSE of the signed error, the Pearson
correlation between true and estimated errors, the raw pairs, and ECDF
samples of the signed error for external plotting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvio import csv_writer
from .dae import DaeDataset
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
    ecdf: tuple[tuple[float, float], ...]  # (signed error, cumulative fraction)
    parameters: str = "-"
    protocol: str = ""

    def signed_errors(self) -> np.ndarray:
        """``delta_est - delta_pos``: positive = overestimate, negative = underestimate."""
        return self.delta_est - self.delta_pos


def summarize(delta_pos, delta_est, label: str = "") -> EvaluationReport:
    """MAE/MSE/Pearson and the signed-error ECDF of true versus estimated errors."""
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

    ordered = np.sort(errors)
    fractions = np.arange(1, len(ordered) + 1) / len(ordered)
    return EvaluationReport(
        label=label,
        mae=float(np.mean(np.abs(errors))),
        mse=float(np.mean(errors**2)),
        pearson=pearson,
        delta_pos=delta_pos,
        delta_est=delta_est,
        ecdf=tuple(zip(ordered.tolist(), fractions.tolist())),
    )


def _fold_seed(base_seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([base_seed, fold]).generate_state(1)[0])


def evaluate_model(
    model: ErrorRegressor | ModelSpec,
    dataset: DaeDataset,
    protocol: str = "cross_fit",
    holdout: DaeDataset | None = None,
    label: str | None = None,
) -> EvaluationReport:
    """Evaluate a model spec or fitted model on an error-regression dataset.

    ``cross_fit`` refits the spec once per fold of ``dataset`` so that no
    record is ever predicted by a model that saw it; every record yields
    exactly one pair.  ``holdout`` evaluates a model fitted on the full
    dataset against external records (pass a fitted model to reuse it, or
    a spec to fit here).
    """
    spec = model if isinstance(model, ModelSpec) else model.spec
    if label is None:
        label = spec.default_label()

    if protocol == "cross_fit":
        folds = np.unique(dataset.folds).tolist()
        if len(folds) < 2:
            raise DatasetError("cross_fit evaluation needs a dataset with at least 2 folds")
        if folds[0] < 0:
            raise DatasetError("cross_fit evaluation is undefined for externally labeled records")
        X = dataset.features()
        delta_pos = dataset.labels()
        estimates = np.empty(len(delta_pos))
        for fold in folds:
            test = dataset.folds == fold
            fold_spec = dataclasses.replace(spec, seed=_fold_seed(spec.seed, fold))
            fitted = fit_arrays(fold_spec, X[~test], delta_pos[~test])
            estimates[test] = fitted.predict(X[test])
    elif protocol == "holdout":
        if holdout is None:
            raise ContractError("holdout protocol requires the external records")
        if not len(holdout):
            raise DatasetError("holdout record set is empty")
        fitted = model if isinstance(model, ErrorRegressor) else fit_arrays(spec, dataset.features(), dataset.labels())
        delta_pos = holdout.labels()
        estimates = fitted.predict(holdout.features())
    else:
        raise ConfigError(f"unknown evaluation protocol {protocol!r}; expected one of {PROTOCOLS}")

    report = summarize(delta_pos, estimates, label=label)
    return dataclasses.replace(report, parameters=spec.params_text(), protocol=protocol)


# ---------------------------------------------------------------------------
# Plot-data and report emission


def write_summary_csv(reports: Sequence[EvaluationReport], dest, comment: str | None = None) -> None:
    """Row-per-model summary: algorithm,parameters,MAE,MSE."""
    with csv_writer(dest, comment) as writer:
        writer.writerow(["algorithm", "parameters", "MAE", "MSE"])
        for rep in reports:
            writer.writerow([rep.label, rep.parameters, f"{rep.mae:.3f}", f"{rep.mse:.3f}"])


def write_pairs_csv(report: EvaluationReport, dest, comment: str | None = None) -> None:
    with csv_writer(dest, comment) as writer:
        writer.writerow(["delta_pos", "delta_est"])
        writer.writerows(zip(map(repr, report.delta_pos.tolist()), map(repr, report.delta_est.tolist())))


def write_ecdf_csv(report: EvaluationReport, dest, comment: str | None = None) -> None:
    with csv_writer(dest, comment) as writer:
        writer.writerow(["signed_error", "fraction"])
        for value, fraction in report.ecdf:
            writer.writerow([repr(float(value)), repr(float(fraction))])
