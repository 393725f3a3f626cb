import dataclasses
import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker

import pytest

from daepos import (
    ConfigError,
    GridSpec,
    ModelSpec,
    SynthWorld,
    build_dae_dataset,
    build_holdout_dataset,
    build_registry,
    evaluate_model,
    generate_grid_dataset,
    make_fold_plan,
    parse_signatures,
    perimeter_aps,
    write_signatures,
)
from daepos import pipeline
from daepos.pipeline import ModelEntry, PipelineConfig, config_hash, default_lineup, load_config, run_pipeline

# Every family, with a forest and a network in the pool and a holdout fit of each.
POOL_LINEUP = [
    ModelEntry("LR", ModelSpec(family="linear"), "plain"),
    ModelEntry("kNN-xy", ModelSpec(family="knn", k=3), "xy"),
    ModelEntry("RF-xy", ModelSpec(family="forest", trees=5), "xy"),
    ModelEntry("NN", ModelSpec(family="network", layers=(8, 8), epochs=3), "plain"),
]
NO_POOL_LINEUP = [entry for entry in POOL_LINEUP if entry.spec.family in ("linear", "knn")]


def minimal_config(**overrides):
    params = {"input": "survey.csv", "out_dir": "out"}
    params.update(overrides)
    return PipelineConfig(**params)


def test_default_lineup_matches_reference_rows():
    entries = default_lineup(seed=0)
    assert [(e.label, e.spec.params_text(), e.variant) for e in entries] == [
        ("LR", "-", "plain"),
        ("LR-xy", "-", "xy"),
        ("RF", "trees=100", "plain"),
        ("RF-xy", "trees=300", "xy"),
        ("kNN", "k=4", "plain"),
        ("kNN-xy", "k=4", "xy"),
        ("NN", "[128, 128, 128]", "plain"),
        ("NN-xy", "[256, 512, 256]", "xy"),
    ]


def test_config_validation_rejects_single_fold():
    with pytest.raises(ConfigError):
        minimal_config(folds=1)
    with pytest.raises(ConfigError):
        minimal_config(ap_count=0)


def test_config_hash_stable_and_sensitive():
    base = minimal_config(seed=3)
    assert config_hash(base) == config_hash(minimal_config(seed=3))
    assert config_hash(base) != config_hash(minimal_config(seed=4))
    assert config_hash(base) != config_hash(minimal_config(seed=3, folds=4))
    # output location is not part of the experiment identity
    assert config_hash(base) == config_hash(minimal_config(seed=3, out_dir="elsewhere"))


def test_load_config_flag_overrides_win(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "a.csv", "out_dir": "o", "folds": 7, "seed": 2}))
    config = load_config(str(path), {"folds": 3, "seed": None})
    assert config.folds == 3  # flag wins
    assert config.seed == 2  # absent flag keeps the file value
    assert config.input == "a.csv"


def test_load_config_model_entries(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "input": "a.csv",
        "out_dir": "o",
        "seed": 5,
        "models": [
            {"family": "forest", "trees": 42, "variant": "xy"},
            {"family": "knn", "k": 2, "label": "nearest"},
        ],
    }))
    config = load_config(str(path), {})
    entries = config.models
    assert entries[0].label == "RF-xy" and entries[0].spec.trees == 42
    assert entries[0].spec.seed == 5  # inherits the run seed
    assert entries[1].label == "nearest" and entries[1].variant == "plain"
    assert entries[1].spec.k == 2  # a model entry's "k" is the kNN regressor's, not the positioner's


def test_config_has_no_positioning_k():
    # the positioner always uses DEFAULT_K, the k its error models are trained on
    names = [field.name for field in dataclasses.fields(PipelineConfig)]
    assert len(names) == 10 and "k" not in names
    with pytest.raises(ConfigError, match=r"unknown config keys: \['k'\]"):
        load_config(None, {"input": "a.csv", "out_dir": "o", "k": 4})


def test_load_config_rejects_model_without_family(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "a.csv", "out_dir": "o", "models": [{"trees": 5}]}))
    with pytest.raises(ConfigError):
        load_config(str(path), {})


def test_config_is_frozen_and_checks_holdout_models_when_built():
    config = minimal_config(holdout_models=["RF-xy", "NN"])
    assert config.holdout_models == ("RF-xy", "NN")  # stored as a tuple, so the config hash ignores the list type
    assert not hasattr(config, "validate")
    with pytest.raises(AttributeError):
        config.folds = 1  # a built config stays as checked
    for holdout_models in ("LR", ["LR", 5], None):
        with pytest.raises(ConfigError, match="holdout_models must be a list"):
            minimal_config(holdout_input="user.csv", holdout_models=holdout_models)
    with pytest.raises(ConfigError, match="holdout model 'NN' is not in the active lineup"):
        minimal_config(holdout_input="user.csv", models=NO_POOL_LINEUP, holdout_models=("LR", "NN"))
    # without a holdout input the labels are not used, so they need not be in the lineup
    assert minimal_config(models=NO_POOL_LINEUP, holdout_models=("NN",)).holdout_models == ("NN",)
    with pytest.raises(ConfigError, match="models must be a list of model entries"):
        minimal_config(models=[{"family": "linear"}])
    lineup = list(NO_POOL_LINEUP)
    config = minimal_config(models=lineup)
    lineup.append(lineup[0])  # a duplicate label, added after the config was checked
    assert config.models == tuple(NO_POOL_LINEUP)


@pytest.mark.parametrize(
    "label, variant, message",
    [("X", "zz", "model variant"), ("X", None, "model variant"), ("", "plain", "model label"),
     (5, "plain", "model label")],
    ids=["variant-unknown", "variant-none", "label-empty", "label-int"],
)
def test_model_entry_is_checked_when_built_before_any_stage_logs(label, variant, message):
    logged = []
    with pytest.raises(ConfigError, match=message):
        entry = ModelEntry(label, ModelSpec(family="linear"), variant)
        run_pipeline(minimal_config(models=[entry]), log=logged.append)
    assert logged == []


@pytest.fixture()
def survey_files(tmp_path):
    world = SynthWorld(ap_positions=perimeter_aps(8, 8.0, 6.0), shadowing_sigma=2.0, seed=11)
    write_signatures(generate_grid_dataset(world, GridSpec(nx=5, ny=4), scans_per_point=3), tmp_path / "survey.csv")
    write_signatures(generate_grid_dataset(world, GridSpec(nx=3, ny=3, spacing=2.5)), tmp_path / "holdout.csv")
    return tmp_path


def pool_config(root, out, **overrides):
    params = dict(
        input=str(root / "survey.csv"), out_dir=str(root / out), ap_count=8, folds=3, seed=1,
        models=POOL_LINEUP, holdout_input=str(root / "holdout.csv"), holdout_models=("RF-xy", "NN"),
    )
    return PipelineConfig(**{**params, **overrides})


def no_pool(workers):
    raise AssertionError(f"a pool of {workers} workers was started")


def use_workers(monkeypatch, workers):
    """Fit with ``workers`` processes (at most one per task), whatever this host's core count."""
    monkeypatch.setattr(pipeline, "_worker_count", lambda n_tasks: min(workers, n_tasks))


def test_out_dir_is_byte_identical_with_one_and_two_workers(survey_files, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    started, blas_threads = [], []
    start_pool = pipeline._start_pool

    def recording_pool(workers):
        pool = start_pool(workers)
        submit = pool.submit

        def recording_submit(*args):  # workers start inside submit and inherit this environment
            blas_threads.append((os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS")))
            return submit(*args)

        pool.submit = recording_submit
        started.append(workers)
        return pool

    monkeypatch.setattr(pipeline, "_start_pool", recording_pool)
    files = {}
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        out = survey_files / f"out{workers}"
        run_pipeline(pool_config(survey_files, out.name), log=lambda message: None)
        files[workers] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert started == [2]  # one worker fits in this process
    assert set(blas_threads) == {("1", "1")}
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2" and "OMP_NUM_THREADS" not in os.environ  # restored
    assert "user_nn_pairs.csv" in files[1] and len(files[1]) == 16
    assert files[1] == files[2]
    assert resource_tracker._resource_tracker._fd is None  # the pool's tracker process is stopped too


@pytest.mark.parametrize(
    "models, workers", [(NO_POOL_LINEUP, 2), (POOL_LINEUP, 1)], ids=["no-forest-or-network", "one-worker"]
)
def test_no_pool_starts_for_one_worker_or_a_lineup_without_forest_or_network(
    survey_files, monkeypatch, models, workers
):
    monkeypatch.setattr(pipeline, "_start_pool", no_pool)
    use_workers(monkeypatch, workers)
    holdout_models = tuple(entry.label for entry in models[-2:])
    config = pool_config(survey_files, "out", models=models, holdout_models=holdout_models)
    reports = run_pipeline(config, log=lambda message: None)
    assert [report.label for report in reports] == [entry.label for entry in models] + ["user", "user"]


# In-process (linear, kNN) and pooled (forest, network) fits alternate in both protocols.
ALTERNATING_LINEUP = [
    ModelEntry("LR", ModelSpec(family="linear"), "plain"),
    ModelEntry("RF-xy", ModelSpec(family="forest", trees=3), "xy"),
    ModelEntry("kNN-xy", ModelSpec(family="knn", k=3), "xy"),
    ModelEntry("NN", ModelSpec(family="network", layers=(8,), epochs=3), "plain"),
]


@pytest.mark.parametrize("workers", [1, 2])
def test_each_report_row_carries_the_estimates_of_its_own_model_and_protocol(survey_files, monkeypatch, workers):
    use_workers(monkeypatch, workers)
    labels = tuple(entry.label for entry in ALTERNATING_LINEUP)
    config = pool_config(survey_files, "out", models=ALTERNATING_LINEUP, holdout_models=labels)
    reports = run_pipeline(config, log=lambda message: None)

    signatures = parse_signatures(config.input)
    external = parse_signatures(config.holdout_input)
    registry = build_registry(signatures, config.ap_count)
    plan = make_fold_plan(len(signatures), config.folds, config.seed, config.grouping, point_ids=signatures.point_ids)
    datasets = {variant: build_dae_dataset(signatures, registry, plan, variant=variant) for variant in ("plain", "xy")}
    expected = [evaluate_model(entry.spec, datasets[entry.variant]) for entry in ALTERNATING_LINEUP]
    expected += [
        evaluate_model(
            entry.spec, datasets[entry.variant], protocol="holdout",
            holdout=build_holdout_dataset(external, signatures, registry, variant=entry.variant),
        )
        for entry in ALTERNATING_LINEUP
    ]
    assert [(report.label, report.protocol) for report in reports] == (
        [(label, "cross_fit") for label in labels] + [("user", "holdout")] * len(labels)
    )
    for report, direct in zip(reports, expected, strict=True):
        assert report.delta_est.tobytes() == direct.delta_est.tobytes(), (report.label, report.parameters)
        assert report.delta_pos.tobytes() == direct.delta_pos.tobytes(), (report.label, report.parameters)


def test_an_interrupt_stops_the_pool_and_leaves_no_out_dir(survey_files, monkeypatch):
    evaluate_model = pipeline.evaluate_model

    def interrupted(*args, estimates=None, **kwargs):
        if estimates is not None:  # the first report made from pool results
            raise KeyboardInterrupt
        return evaluate_model(*args, estimates=estimates, **kwargs)

    monkeypatch.setattr(pipeline, "evaluate_model", interrupted)
    use_workers(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(pool_config(survey_files, "out"), log=lambda message: None)
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._fd is None
    assert sorted(path.name for path in survey_files.iterdir()) == ["holdout.csv", "survey.csv"]


def test_a_pool_broken_at_a_submit_is_one_evaluate_stage_error(survey_files, monkeypatch):
    start_pool = pipeline._start_pool

    def broken_submit(*args):  # what submit raises once a worker has died
        raise BrokenProcessPool("a child process terminated abruptly")

    def broken_pool(workers):
        pool = start_pool(workers)
        pool.submit = broken_submit
        return pool

    monkeypatch.setattr(pipeline, "_start_pool", broken_pool)
    use_workers(monkeypatch, 2)
    with pytest.raises(ConfigError, match=r"^stage evaluate: a worker process ended .*__main__"):
        run_pipeline(pool_config(survey_files, "out"), log=lambda message: None)
    assert resource_tracker._resource_tracker._fd is None
    assert sorted(path.name for path in survey_files.iterdir()) == ["holdout.csv", "survey.csv"]


def test_run_stages_its_files_inside_an_existing_out_dir_whose_parent_is_read_only(survey_files):
    parent = survey_files / "locked"
    (parent / "out").mkdir(parents=True)
    listings = []  # the parent's entries each time a stage reports, while the run is writing

    def log(message):
        listings.append(sorted(path.name for path in parent.iterdir()))

    config = pool_config(survey_files, "locked/out", models=NO_POOL_LINEUP, holdout_input=None)
    parent.chmod(0o555)
    try:
        run_pipeline(config, log=log)
    finally:
        parent.chmod(0o755)
    assert listings and set(map(tuple, listings)) == {("out",)}
    names = sorted(path.name for path in (parent / "out").iterdir())
    assert len(names) == 8 and "report.csv" in names and not any(name.startswith(".") for name in names)
