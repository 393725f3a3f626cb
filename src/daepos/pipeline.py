"""End-to-end experiment pipeline.

Reads a signature file, selects APs, builds the error-regression datasets,
evaluates the configured model lineup fold-out-of-fit, optionally runs a
transfer evaluation against a second signature file, and writes the summary
and plot-data artifacts.  Two runs with the same configuration and seed
produce byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .csvio import csv_writer
from .dae import GROUPINGS, VARIANTS, build_dae_dataset, build_holdout_dataset, make_fold_plan, write_dae_dataset
from .errors import ConfigError, DaeposError
from .evaluation import EvaluationReport, evaluate_model, write_ecdf_csv, write_pairs_csv, write_summary_csv
from .positioning import DEFAULT_K
from .regressors import ModelSpec
from .regressors.base import _is_int
from .signatures import SIGNATURE_FORMATS, build_registry, parse_signatures

# The default lineup: every family with and without the appended location
# estimate, using the parameter choices reported for each family.
DEFAULT_LINEUP: tuple[tuple[str, dict, str], ...] = (
    ("LR", {"family": "linear"}, "plain"),
    ("LR-xy", {"family": "linear"}, "xy"),
    ("RF", {"family": "forest", "trees": 100}, "plain"),
    ("RF-xy", {"family": "forest", "trees": 300}, "xy"),
    ("kNN", {"family": "knn", "k": 4}, "plain"),
    ("kNN-xy", {"family": "knn", "k": 4}, "xy"),
    ("NN", {"family": "network", "layers": [128, 128, 128]}, "plain"),
    ("NN-xy", {"family": "network", "layers": [256, 512, 256]}, "xy"),
)


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")


@dataclass(frozen=True)
class ModelEntry:
    label: str
    spec: ModelSpec
    variant: str  # which dataset variant this model consumes


@dataclass
class PipelineConfig:
    input: str
    out_dir: str
    fmt: str = "canonical"
    ap_count: int = 35
    k: int = DEFAULT_K
    folds: int = 5
    grouping: str = "by_signature"
    seed: int = 0
    models: list[ModelEntry] = field(default_factory=list)  # empty = default lineup
    holdout_input: str | None = None
    holdout_models: tuple[str, ...] = ("RF-xy",)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not (isinstance(self.input, str) and self.input):
            raise ConfigError(f"an input signature file is required, got {self.input!r}")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ConfigError(f"out_dir must be an output directory path, got {self.out_dir!r}")
        if not (self.holdout_input is None or (isinstance(self.holdout_input, str) and self.holdout_input)):
            raise ConfigError(f"holdout_input must be a file path or null, got {self.holdout_input!r}")
        if self.fmt not in SIGNATURE_FORMATS:
            raise ConfigError(f"fmt must be one of {SIGNATURE_FORMATS}, got {self.fmt!r}")
        for name in ("ap_count", "k", "folds", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.ap_count < 1:
            raise ConfigError(f"ap_count must be >= 1, got {self.ap_count}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.folds < 2:
            raise ConfigError(f"at least 2 folds are required, got {self.folds}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.grouping not in GROUPINGS:
            raise ConfigError(f"unknown grouping {self.grouping!r}; expected one of {GROUPINGS}")
        # each model's pairs and ECDF files are named by the slug of its label
        labels = [e.label for e in self.active_models()]
        if self.holdout_input:
            labels += [f"user_{label}" for label in self.holdout_models]
        owners = {}
        for label in labels:
            slug = _slug(label)
            if not slug:
                raise ConfigError(f"model label {label!r} has no letter or digit to name its output files")
            if slug in owners:
                raise ConfigError(f"model labels {owners[slug]!r} and {label!r} both name the files {slug}_*.csv")
            owners[slug] = label

    def active_models(self) -> list[ModelEntry]:
        return self.models or default_lineup(self.seed)


def default_lineup(seed: int) -> list[ModelEntry]:
    return [
        ModelEntry(label=label, spec=ModelSpec(seed=seed, **params), variant=variant)
        for label, params, variant in DEFAULT_LINEUP
    ]


def _entry_from_dict(d: dict, default_seed: int) -> ModelEntry:
    if not isinstance(d, dict):
        raise ConfigError(f"model entry {d!r} must be a JSON object")
    params = {k: v for k, v in d.items() if k not in ("label", "variant")}
    if "family" not in params:
        raise ConfigError(f"model entry {d!r} lacks a family")
    try:
        spec = ModelSpec(**{"seed": default_seed, **params})
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"model entry {d!r}: {exc}") from None
    variant = d.get("variant", "plain")
    if variant not in VARIANTS:
        raise ConfigError(f"model entry variant must be plain or xy, got {variant!r}")
    label = d.get("label", spec.default_label() + ("-xy" if variant == "xy" else ""))
    if not (isinstance(label, str) and label):
        raise ConfigError(f"model entry {d!r}: label must be a non-empty string")
    return ModelEntry(label=label, spec=spec, variant=variant)


def config_to_dict(config: PipelineConfig) -> dict:
    """The resolved config as JSON data, without ``out_dir``.

    Where outputs land is not part of the experiment identity.
    """
    d = dataclasses.asdict(config)
    d.pop("out_dir")
    d["models"] = [dataclasses.asdict(e) for e in config.active_models()]
    return d


def _digest(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def provenance(params: dict) -> str:
    """The ``config_hash=<digest> seed=<seed>`` stamp of files made with ``params``."""
    return f"config_hash={_digest(params)} seed={params.get('seed', 0)}"


def config_hash(config: PipelineConfig) -> str:
    return _digest(config_to_dict(config))


def load_config(path: str | None, overrides: dict | None = None) -> PipelineConfig:
    """Build a config from an optional JSON file plus flag overrides.

    Flags win over file values; ``models`` entries come from the file as a
    list (the default lineup when absent or empty).
    """
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    if "models" in merged and not isinstance(merged["models"], list):
        raise ConfigError(f"models must be a list of model entries, got {merged['models']!r}")
    seed = merged.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    try:
        if "models" in merged:
            merged["models"] = [_entry_from_dict(m, seed) for m in merged["models"]]
        holdout = merged.get("holdout_models")
        if holdout is not None:
            if isinstance(holdout, str) or not all(isinstance(label, str) for label in holdout):
                raise ConfigError(f"holdout_models must be a list of model labels, got {holdout!r}")
            merged["holdout_models"] = tuple(holdout)
        return PipelineConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


@contextmanager
def _stage(name: str):
    try:
        yield
    except DaeposError as exc:
        exc.args = (f"stage {name}: {exc}",)
        raise


def run_pipeline(config: PipelineConfig, log=print) -> list[EvaluationReport]:
    """Execute every stage and write artifacts into ``config.out_dir``."""
    config.validate()
    stamp = provenance(config_to_dict(config))
    entries = config.active_models()
    by_label = {e.label: e for e in entries}
    missing = [label for label in config.holdout_models if label not in by_label]
    if config.holdout_input and missing:
        raise ConfigError(f"holdout model {missing[0]!r} is not in the active lineup")

    with _stage("ingest"):
        signatures = parse_signatures(config.input, config.fmt)
        log(f"ingest: {len(signatures)} signatures from {config.input}")

    with _stage("registry"):
        registry = build_registry(signatures, config.ap_count)
        log(f"registry: retained {len(registry)} APs")

    with _stage("folds"):
        plan = make_fold_plan(
            len(signatures),
            config.folds,
            config.seed,
            config.grouping,
            point_ids=signatures.point_ids,
        )

    out = Path(config.out_dir)  # made once the input is read, so a bad input leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    datasets = {}
    with _stage("dae-dataset"):
        for variant in sorted({e.variant for e in entries}):
            dataset = build_dae_dataset(
                signatures, registry, plan,
                k=config.k, variant=variant,
            )
            datasets[variant] = dataset
            path = out / f"dae_{variant}.csv"
            write_dae_dataset(dataset, path, comment=stamp)
            log(f"dae-dataset: {len(dataset)} records ({variant}) -> {path}")

    reports: list[EvaluationReport] = []
    with _stage("evaluate"):
        for entry in entries:
            report = evaluate_model(entry.spec, datasets[entry.variant], protocol="cross_fit", label=entry.label)
            reports.append(report)
            slug = _slug(entry.label)
            write_pairs_csv(report, out / f"{slug}_pairs.csv", comment=stamp)
            write_ecdf_csv(report, out / f"{slug}_ecdf.csv", comment=stamp)
            pearson = "undefined" if report.pearson is None else f"{report.pearson:.3f}"
            log(f"evaluate: {entry.label}: MAE={report.mae:.3f} MSE={report.mse:.3f} pearson={pearson}")

    if config.holdout_input:
        with _stage("holdout"):
            external = parse_signatures(config.holdout_input, config.fmt)
            log(f"holdout: {len(external)} external signatures from {config.holdout_input}")
            external_sets = {  # the external scans are labeled once per variant
                variant: build_holdout_dataset(external, signatures, registry, k=config.k, variant=variant)
                for variant in sorted({by_label[label].variant for label in config.holdout_models})
            }
            for label in config.holdout_models:
                entry = by_label[label]
                report = evaluate_model(
                    entry.spec, datasets[entry.variant], protocol="holdout", holdout=external_sets[entry.variant],
                    label="user",
                )
                bare = entry.spec.params_text().split("=", 1)[-1]  # "trees=300" -> "300"
                report = dataclasses.replace(report, parameters=f"{entry.label} ({bare})")
                reports.append(report)
                slug = _slug(f"user_{entry.label}")
                write_pairs_csv(report, out / f"{slug}_pairs.csv", comment=stamp)
                write_ecdf_csv(report, out / f"{slug}_ecdf.csv", comment=stamp)
                log(f"holdout: {entry.label}: MAE={report.mae:.3f} MSE={report.mse:.3f}")

    with _stage("report"):
        write_summary_csv(reports, out / "report.csv", comment=stamp)
        _write_metrics_csv(reports, out / "metrics.csv", comment=stamp)
        log(f"report: {len(reports)} rows -> {out / 'report.csv'}")

    return reports


def _write_metrics_csv(reports, path, comment):
    with csv_writer(path, comment) as writer:
        writer.writerow(["algorithm", "parameters", "protocol", "MAE", "MSE", "pearson", "n_pairs"])
        for rep in reports:
            pearson = "" if rep.pearson is None else repr(rep.pearson)
            writer.writerow(
                [rep.label, rep.parameters, rep.protocol, repr(rep.mae), repr(rep.mse), pearson, len(rep.delta_pos)]
            )
