"""End-to-end experiment pipeline.

Reads a signature file, selects APs, builds the error-regression datasets,
evaluates the configured model lineup fold-out-of-fit, optionally runs a
transfer evaluation against a second signature file, and writes the summary
and plot-data artifacts.  Two runs with the same configuration and seed
produce byte-identical files, whatever the number of worker processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

from .csvio import csv_writer
from .dae import GROUPINGS, VARIANTS, build_dae_dataset, build_holdout_dataset, make_fold_plan, write_dae_dataset
from .errors import ConfigError, DaeposError
from .evaluation import (
    EvaluationReport,
    evaluate_model,
    fit_and_predict,
    fit_tasks,
    write_ecdf_csv,
    write_pairs_csv,
    write_summary_csv,
)
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

    def __post_init__(self):
        if not (isinstance(self.label, str) and self.label):
            raise ConfigError(f"model label must be a non-empty string, got {self.label!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"model variant must be plain or xy, got {self.variant!r}")


@dataclass(frozen=True)
class PipelineConfig:
    input: str
    out_dir: str
    fmt: str = "canonical"
    ap_count: int = 35
    folds: int = 5
    grouping: str = "by_signature"
    seed: int = 0
    models: tuple[ModelEntry, ...] = ()  # empty becomes the default lineup at ``seed``
    holdout_input: str | None = None
    holdout_models: tuple[str, ...] = ("RF-xy",)

    def __post_init__(self):
        if not (isinstance(self.input, str) and self.input):
            raise ConfigError(f"an input signature file is required, got {self.input!r}")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ConfigError(f"out_dir must be an output directory path, got {self.out_dir!r}")
        if not (self.holdout_input is None or (isinstance(self.holdout_input, str) and self.holdout_input)):
            raise ConfigError(f"holdout_input must be a file path or null, got {self.holdout_input!r}")
        holdout = self.holdout_models
        if not (isinstance(holdout, (list, tuple)) and all(isinstance(label, str) for label in holdout)):
            raise ConfigError(f"holdout_models must be a list of model labels, got {holdout!r}")
        object.__setattr__(self, "holdout_models", tuple(holdout))
        if self.fmt not in SIGNATURE_FORMATS:
            raise ConfigError(f"fmt must be one of {SIGNATURE_FORMATS}, got {self.fmt!r}")
        for name in ("ap_count", "folds", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.ap_count < 1:
            raise ConfigError(f"ap_count must be >= 1, got {self.ap_count}")
        if self.folds < 2:
            raise ConfigError(f"at least 2 folds are required, got {self.folds}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.grouping not in GROUPINGS:
            raise ConfigError(f"unknown grouping {self.grouping!r}; expected one of {GROUPINGS}")
        if not (isinstance(self.models, (list, tuple)) and all(isinstance(e, ModelEntry) for e in self.models)):
            raise ConfigError(f"models must be a list of model entries, got {self.models!r}")
        object.__setattr__(self, "models", tuple(self.models) or tuple(default_lineup(self.seed)))
        # each model's pairs and ECDF files are named by the slug of its label
        labels = [e.label for e in self.models]
        if self.holdout_input:
            missing = [label for label in self.holdout_models if label not in labels]
            if missing:
                raise ConfigError(f"holdout model {missing[0]!r} is not in the active lineup")
            labels += [f"user_{label}" for label in self.holdout_models]
        owners = {}
        for label in labels:
            slug = _slug(label)
            if not slug:
                raise ConfigError(f"model label {label!r} has no letter or digit to name its output files")
            if slug in owners:
                raise ConfigError(f"model labels {owners[slug]!r} and {label!r} both name the files {slug}_*.csv")
            owners[slug] = label


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
        variant = d.get("variant", "plain")
        label = d.get("label", spec.default_label() + ("-xy" if variant == "xy" else ""))
        return ModelEntry(label=label, spec=spec, variant=variant)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"model entry {d!r}: {exc}") from None


def config_to_dict(config: PipelineConfig) -> dict:
    """The resolved config as JSON data, without ``out_dir``.

    Where outputs land is not part of the experiment identity.
    """
    d = dataclasses.asdict(config)
    d.pop("out_dir")
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
            raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
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

    seed = merged.get("seed", 0)
    seed = seed if _is_int(seed) else 0  # the entries' default; PipelineConfig reports a bad run seed
    try:
        if isinstance(merged.get("models"), list):  # PipelineConfig reports any other value
            merged["models"] = [_entry_from_dict(m, seed) for m in merged["models"]]
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


# Families whose fits run as tasks that may go to worker processes; linear
# and kNN fits take milliseconds and stay in the calling process.
POOLED_FAMILIES = ("forest", "network")

# Approximate seconds per unit of ``_task_cost`` on a 2-core host, which
# put forest fits (trees x rows) and network fits (epochs x rows x weights)
# on one scale for longest-first scheduling.
_SECONDS_PER_UNIT = {"forest": 70e-6, "network": 1e-9}

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _task_cost(task: tuple) -> float:
    spec, X, _, test, _ = task
    rows, width = X.shape
    if test is not None:  # a cross-fit fold trains on the rows outside its test mask
        rows -= int(test.sum())
    if spec.family == "forest":
        return _SECONDS_PER_UNIT["forest"] * spec.trees * rows
    widths = (width, *spec.layers, 1)
    weights = sum(a * b for a, b in zip(widths, widths[1:]))
    return _SECONDS_PER_UNIT["network"] * spec.epochs * rows * weights


def _worker_count(n_tasks: int) -> int:
    """One worker per core this process may run on, at most one per task."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return min(cores, n_tasks)


def _in_starting_worker() -> bool:
    """True in a spawned process that is still importing its parent's main module."""
    multiprocessing = sys.modules.get("multiprocessing")  # a spawned process has always imported it
    return multiprocessing is not None and getattr(multiprocessing.current_process(), "_inheriting", False)


def _ignore_interrupts() -> None:
    # a worker's initializer: Ctrl-C goes to the parent, which stops the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _start_pool(workers: int):
    """A spawn-context process pool; its processes start at the first submits."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"), initializer=_ignore_interrupts)


@contextmanager
def _one_blas_thread():
    """Ask for one BLAS thread in the environment of processes started in the block."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value


@contextmanager
def _fit_results(tasks: list[tuple]):
    """An iterator of each ``fit_and_predict`` task's estimates, in task order.

    With one worker, a task runs in this process when its result is drawn,
    so tasks run and fail in the order their results are read.  With
    more, every task is submitted at once, longest first, to a spawn pool
    whose processes each use one BLAS thread, and the results are read in
    task order.  The pool and every process it started are gone when the
    block ends, however it ends.
    """
    workers = _worker_count(len(tasks))
    if workers <= 1:
        yield (fit_and_predict(*task) for task in tasks)
        return
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import resource_tracker

    # The pool's semaphores start multiprocessing's resource tracker process
    # if it is not running; it has no public stop, so its private one is used.
    tracker = resource_tracker._resource_tracker
    tracker_was_running = tracker._fd is not None
    pool = _start_pool(workers)
    finished = False
    try:
        with _one_blas_thread():  # the workers start during these submits
            futures = {
                i: pool.submit(fit_and_predict, *tasks[i])
                for i in sorted(range(len(tasks)), key=lambda i: -_task_cost(tasks[i]))
            }
        yield (futures[i].result() for i in range(len(tasks)))
        finished = True
    except BrokenProcessPool:  # at a submit, or at a result read in the block
        raise ConfigError(
            "a worker process ended before its fit did: it was killed, or the calling script starts "
            "run_pipeline without an `if __name__ == \"__main__\":` guard"
        ) from None
    finally:
        processes = list((pool._processes or {}).values())  # the executor has no public process list
        if not finished:  # stop the fits still running instead of waiting for them
            for process in processes:
                process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
        for process in processes:
            process.join()
        if not tracker_was_running:
            tracker._stop()


@contextmanager
def _staged_output(out: Path):
    """A new hidden directory inside ``out`` (made if absent) to write into.

    Its files move up into ``out`` only when the block succeeds.  Otherwise
    it is removed, and so are ``out`` and its parents where this call made
    them, so ``out`` is left as it was.  Staging inside ``out`` needs no
    access to its parent and keeps every move on one filesystem.
    """
    made = []  # the directories this call creates, deepest first
    for directory in (out, *out.parents):
        if directory.exists():
            break
        made.append(directory)
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    succeeded = False
    try:
        yield staging
        for path in sorted(staging.iterdir()):
            os.replace(path, out / path.name)
        succeeded = True
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if not succeeded:
            with suppress(OSError):  # a directory someone else wrote into stays
                for directory in made:
                    directory.rmdir()


def run_pipeline(config: PipelineConfig, log=print) -> list[EvaluationReport]:
    """Execute every stage and write artifacts into ``config.out_dir``.

    The files appear in ``out_dir`` only once every stage has succeeded.
    The forest and network fits run in one spawned process per available
    core when there are two or more, so a script calling this must do so
    under ``if __name__ == "__main__":``.
    """
    if _in_starting_worker():
        # A pool worker re-running an unguarded caller script: end it before
        # it reads or writes anything; the parent reports the broken pool.
        raise SystemExit(1)
    stamp = provenance(config_to_dict(config))
    by_label = {e.label: e for e in config.models}
    holdout_entries = [by_label[label] for label in config.holdout_models] if config.holdout_input else []

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

    out = Path(config.out_dir)
    reports: list[EvaluationReport] = []
    with _staged_output(out) as staging:  # made once the input is read, so a bad input leaves no directory
        datasets = {}
        with _stage("dae-dataset"):
            for variant in sorted({e.variant for e in config.models}):
                dataset = build_dae_dataset(signatures, registry, plan, variant=variant)
                datasets[variant] = dataset
                name = f"dae_{variant}.csv"
                write_dae_dataset(dataset, staging / name, comment=stamp)
                log(f"dae-dataset: {len(dataset)} records ({variant}) -> {out / name}")

        # one job per report row, in report order: (entry, protocol, external records, file slug)
        jobs = [(entry, "cross_fit", None, _slug(entry.label)) for entry in config.models]
        if config.holdout_input:
            with _stage("holdout"):
                external = parse_signatures(config.holdout_input, config.fmt)
                log(f"holdout: {len(external)} external signatures from {config.holdout_input}")
                external_sets = {  # the external scans are labeled once per variant
                    variant: build_holdout_dataset(external, signatures, registry, variant=variant)
                    for variant in sorted({e.variant for e in holdout_entries})
                }
            jobs += [
                (entry, "holdout", external_sets[entry.variant], _slug(f"user_{entry.label}"))
                for entry in holdout_entries
            ]

        with _stage("evaluate"):
            # pooled entries' fits run as tasks; evaluate_model fits the rest here, one fold at a time
            job_tasks = [
                fit_tasks(entry.spec, datasets[entry.variant], protocol, holdout)
                if entry.spec.family in POOLED_FAMILIES else []
                for entry, protocol, holdout, _ in jobs
            ]
            with _fit_results(list(itertools.chain.from_iterable(job_tasks))) as results:
                for (entry, protocol, holdout, slug), tasks in zip(jobs, job_tasks):
                    report = evaluate_model(
                        entry.spec, datasets[entry.variant], protocol=protocol, holdout=holdout,
                        label="user" if protocol == "holdout" else entry.label,
                        estimates=list(itertools.islice(results, len(tasks))) if tasks else None,
                    )
                    if protocol == "holdout":
                        bare = entry.spec.params_text().split("=", 1)[-1]  # "trees=300" -> "300"
                        report = dataclasses.replace(report, parameters=f"{entry.label} ({bare})")
                    reports.append(report)
                    write_pairs_csv(report, staging / f"{slug}_pairs.csv", comment=stamp)
                    write_ecdf_csv(report, staging / f"{slug}_ecdf.csv", comment=stamp)
                    stage = "holdout" if protocol == "holdout" else "evaluate"
                    log(f"{stage}: {entry.label}: {report.summary_text()}")

        with _stage("report"):
            write_summary_csv(reports, staging / "report.csv", comment=stamp)
            _write_metrics_csv(reports, staging / "metrics.csv", comment=stamp)
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
