"""Tests for the benchmark's own helpers: span wrappers, percentiles, metric names."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import daepos  # noqa: E402
import daepos.cli  # noqa: E402
import daepos.dae  # noqa: E402
import daepos.evaluation  # noqa: E402
import daepos.pipeline  # noqa: E402
import daepos.positioning  # noqa: E402
import daepos.regressors  # noqa: E402
import daepos.regressors.network  # noqa: E402
from daepos.pipeline import ModelEntry  # noqa: E402
from metrics import END_TO_END, PER_LAYER, tail_percentile  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Survey, Workload, prepare  # noqa: E402

PATCHED_OWNERS = (
    daepos.cli,
    daepos.dae,
    daepos.evaluation,
    daepos.pipeline,
    daepos.positioning,
    daepos.regressors,
    daepos.regressors.network,
    daepos.dae.DaeDataset,
    daepos.positioning.RadioMap,
    daepos.regressors.base.ErrorRegressor,
)


def _snapshot():
    return [(owner, dict(vars(owner))) for owner in PATCHED_OWNERS]


def _assert_unchanged(before):
    for owner, names in before:
        now = dict(vars(owner))
        assert now.keys() == names.keys(), owner
        changed = [name for name in names if now[name] is not names[name]]
        assert not changed, (owner, changed)


def _tiny_survey(tmp_path):
    world = daepos.SynthWorld(ap_positions=daepos.perimeter_aps(6, 8.0, 6.0), seed=3)
    survey = daepos.generate_grid_dataset(world, daepos.GridSpec(nx=5, ny=4), scans_per_point=2)
    daepos.write_signatures(survey, tmp_path / "survey.csv")
    return len(survey)


def test_wrappers_install_and_restore_leave_daepos_unchanged():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert daepos.dae.localize is not daepos.positioning.localize
        assert daepos.regressors.base.ErrorRegressor.predict.__wrapped__ is not None
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    _assert_unchanged(before)


def test_traced_pipeline_records_every_layer_metric(tmp_path):
    n_scans = _tiny_survey(tmp_path)
    config = daepos.PipelineConfig(
        input=str(tmp_path / "survey.csv"),
        out_dir=str(tmp_path / "out"),
        ap_count=6,
        folds=2,
        models=[ModelEntry("LR-xy", daepos.ModelSpec(family="linear"), "xy"),
                ModelEntry("kNN", daepos.ModelSpec(family="knn", k=2), "plain")],
    )
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        daepos.run_pipeline(config, log=lambda message: None)
    finally:
        tracer.restore()
    _assert_unchanged(before)

    layers = layer_metrics(tracer.spans, wall_s=1.0, untraced_wall_s=1.0)
    assert list(layers) == [name for name, _, _ in PER_LAYER]
    assert layers["positioning.localize.calls"] == 2 * n_scans  # both variants label every scan
    assert layers["dae.build_dae_dataset.calls"] == 2
    assert layers["regressors.fit.linear.calls"] == 2  # one per fold
    assert layers["regressors.predict.knn.rows"] == n_scans
    assert layers["regressors.fit.forest.calls"] == 0
    assert layers["signatures.parse_signatures.rows"] == n_scans
    assert 0 < layers["signatures.readings_kept_frac"] <= 1
    assert layers["evaluation.evaluate_model.LR-xy.s"] > 0
    assert layers["pipeline.stage.evaluate.s"] >= layers["evaluation.evaluate_model.kNN.s"]
    assert layers["trace.overhead_frac"] == 0.0


def test_traced_repetition_with_predict_call_passes_its_checks(tmp_path, monkeypatch):
    import worker

    tiny = Workload("tiny", Survey(nx=5, ny=4, scans_per_point=2, n_aps=40),
                    (("LR-xy", {"family": "linear"}, "xy"),), "LR-xy", serve_scans=5)
    monkeypatch.chdir(tmp_path)
    prepare(tiny, 5, tmp_path)
    reference = worker.serve_reference()
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        rep, line_times = worker.run_rep(tiny, "out", reference)
    finally:
        tracer.restore()
    _assert_unchanged(before)

    assert rep["problems"] == [] and rep["failed"] == 0
    assert rep["attempted"] == 1 + 5  # one lineup model, five scans
    assert 0 < rep["setup_s"] < rep["wall_s"]
    assert len(line_times) == 5
    layers = layer_metrics(tracer.spans, rep["wall_s"], rep["wall_s"], line_times)
    assert layers["regressors.store.model_bytes"] == (tmp_path / "model.npz").stat().st_size
    assert layers["regressors.predict.forest.calls"] == 5
    assert layers["cli.predict.self_us_per_scan"] > 0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(1000)) == (99, 989.0)
    assert tail_percentile(range(999)) == (95, 949.0)  # p99 would leave only 9 beyond
    assert tail_percentile(range(100)) == (90, 89.0)
    assert tail_percentile(range(20)) == (50, 9.0)
    assert tail_percentile(range(19)) is None
    for n in (20, 57, 200, 1000, 1234):
        percent, value = tail_percentile(range(n))
        assert sum(1 for v in range(n) if v > value) >= 10


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
