import argparse
import dataclasses
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import daepos
from daepos import (
    ApRegistry,
    ModelSpec,
    RadioMap,
    build_dae_dataset,
    build_holdout_dataset,
    build_registry,
    feature_matrix,
    fit,
    load_model,
    localize,
    make_fold_plan,
    parse_signatures,
    read_dae_dataset,
)
from daepos.cli import build_parser, main
from daepos.dae import feature_rows
from daepos.pipeline import PipelineConfig
from daepos.signatures import FILL_DBM


@pytest.fixture()
def survey_csv(tmp_path):
    path = tmp_path / "survey.csv"
    code = main(
        ["synth", "--grid", "5x4", "--spacing", "2", "--aps", "8", "--scans", "3",
         "--sigma", "2.0", "--seed", "11", "--out", str(path)]
    )
    assert code == 0
    return path


def run_ok(argv):
    assert main(argv) == 0


def test_synth_writes_parseable_canonical_csv(survey_csv):
    text = survey_csv.read_text()
    assert text.startswith("# config_hash=")
    assert "seed=11" in text.splitlines()[0]
    sigs = parse_signatures(survey_csv)
    assert len(sigs) == 60


def test_synth_deterministic_bytes(tmp_path, survey_csv):
    other = tmp_path / "again.csv"
    run_ok(["synth", "--grid", "5x4", "--spacing", "2", "--aps", "8", "--scans", "3",
            "--sigma", "2.0", "--seed", "11", "--out", str(other)])
    assert other.read_bytes() == survey_csv.read_bytes()


def test_ingest_normalizes_zenodo_layout(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("label,POS_X,POS_Y,aa:01,bb:02\nq1,0.5,1.5,-60,100\nq2,2.5,1.0,-70,-50\n")
    out = tmp_path / "canonical.csv"
    run_ok(["ingest", str(raw), "--format", "zenodo", "--out", str(out)])
    sigs = parse_signatures(out)
    assert [s.point_id for s in sigs] == ["q1", "q2"]
    assert dict(sigs[0].readings) == {"aa:01": -60.0}


@pytest.mark.parametrize("header", ["x,y,,ap2", "x,y,ap1,ap1"], ids=["empty-ap", "duplicate-ap"])
def test_ingest_zenodo_exit_code_data_error_for_bad_ap_header(tmp_path, capsys, header):
    raw = tmp_path / "raw.csv"
    raw.write_text(f"{header}\n0.5,1.5,-60,-70\n")
    assert main(["ingest", str(raw), "--format", "zenodo", "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "error: AP columns must be non-empty and unique\n", err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("header", ["id,x,pos_x,y,ap1", ",X,Pos_X,Y_M"], ids=["x-and-pos_x", "X-and-Pos_X"])
def test_ingest_zenodo_exit_code_data_error_for_two_coordinate_columns(tmp_path, capsys, header):
    raw = tmp_path / "raw.csv"
    raw.write_text(f"{header}\np1,0.5,-1.5,1.0,-60\n")
    assert main(["ingest", str(raw), "--format", "zenodo", "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: header has more than one x column") and err.count("\n") == 1, err
    assert not (tmp_path / "out.csv").exists()


def test_build_dataset_columns_and_rows(tmp_path, survey_csv):
    out = tmp_path / "dae.csv"
    run_ok(["build-dataset", str(survey_csv), "--folds", "4", "--seed", "2",
            "--variant", "xy", "--out", str(out)])
    dataset = read_dae_dataset(out)
    assert len(dataset) == 60
    assert dataset.variant == "xy"
    header = out.read_text().splitlines()[1].split(",")
    assert header[:2] == ["point_id", "fold"]
    assert header[-3:] == ["x_est", "y_est", "delta_pos"]


def test_train_evaluate_roundtrip(tmp_path, survey_csv):
    dae = tmp_path / "dae.csv"
    run_ok(["build-dataset", str(survey_csv), "--folds", "4", "--seed", "2", "--out", str(dae)])
    model = tmp_path / "model.bin"
    run_ok(["train", str(dae), "--family", "forest", "--trees", "20", "--seed", "5",
            "--out", str(model)])
    assert model.exists()
    out = tmp_path / "eval"
    run_ok(["evaluate", "--model", str(model), "--data", str(dae), "--label", "RF",
            "--out", str(out)])
    report = (out / "report.csv").read_text().splitlines()
    assert report[1] == "algorithm,parameters,MAE,MSE"
    assert report[2].startswith("RF,trees=20,")
    assert (out / "pairs.csv").exists() and (out / "ecdf.csv").exists()


def test_predict_counts_and_nonnegative_radius(tmp_path, survey_csv, capsys):
    dae = tmp_path / "dae.csv"
    run_ok(["build-dataset", str(survey_csv), "--folds", "4", "--seed", "2", "--out", str(dae)])
    model = tmp_path / "model.bin"
    run_ok(["train", str(dae), "--family", "knn", "--neighbors", "4", "--out", str(model)])
    scans = tmp_path / "scans.csv"
    run_ok(["synth", "--grid", "3x1", "--spacing", "2", "--aps", "8", "--scans", "1",
            "--sigma", "2.0", "--seed", "77", "--out", str(scans)])
    capsys.readouterr()
    run_ok(["predict", str(scans), "--model", str(model), "--map", str(survey_csv)])
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 3
    for line in lines:
        x, y, radius = (float(c) for c in line.split(","))
        assert radius >= 0.0


def test_predict_zero_radius_for_memorized_exact_match(tmp_path):
    # noise-free world: sibling scans coincide, so a k=1 map hit is exact and
    # a dataset built with one scan per fold-complement yields zero labels.
    # `predict` always locates with DEFAULT_K, so its per-scan path runs here with k=1.
    survey = tmp_path / "exact.csv"
    run_ok(["synth", "--grid", "4x4", "--spacing", "2", "--aps", "6", "--scans", "3",
            "--sigma", "0", "--seed", "4", "--out", str(survey)])
    signatures = parse_signatures(survey)
    registry = build_registry(signatures, 35)
    plan = make_fold_plan(len(signatures), 3, 1, "by_signature", point_ids=signatures.point_ids)
    dataset = build_dae_dataset(signatures, registry, plan, k=1)
    model = fit(ModelSpec(family="knn", k=1), dataset)
    radio_map = RadioMap.from_signatures(signatures, registry)
    radii = []
    for vector in feature_matrix(signatures, registry):
        estimate = localize(vector, radio_map, k=1)
        radii.append(model.predict(feature_rows(vector, [estimate.position.x, estimate.position.y], "plain")))
    # scans identical to map entries: distance-zero hits both for the position
    # and for the error lookup, so most predicted radii collapse to zero
    radii = np.array(radii)
    assert len(radii) == 48
    assert (dataset.labels() == 0.0).mean() > 0.5
    assert (radii == 0.0).mean() > 0.5
    assert radii.min() >= 0.0


def test_predict_warns_for_a_scan_without_a_retained_ap(tmp_path, trained_models, capsys):
    survey = trained_models / "survey.csv"
    ap = next(iter(parse_signatures(survey)[0].readings))
    scans = tmp_path / "scans.csv"
    scans.write_text(f"point_id,x,y,{ap},zz1,zz2\nseen,1.0,2.0,-60,,\nlonely,4.5,2.0,,-60,-70\n")
    capsys.readouterr()
    run_ok(["predict", str(scans), "--model", str(trained_models / "forest.npz"), "--map", str(survey)])
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2  # every scan still gets its answer line
    assert err.startswith("warning: scan lonely ") and err.count("\n") == 1, err


def test_predict_refuses_a_map_without_a_reading_from_the_models_aps(tmp_path, trained_models, capsys):
    # every scan would be located at the same imputed map entry
    survey = trained_models / "survey.csv"
    comment, header, *rows = survey.read_text().splitlines()
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("\n".join([comment, header.replace(",ap", ",zz"), *rows]) + "\n")
    assert main(["predict", str(survey), "--model", str(trained_models / "forest.npz"), "--map", str(renamed)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: map {renamed} has no reading from the model's 8 APs\n"
    assert captured.out == ""


def test_predict_prints_the_holdout_dataset_row_of_every_scan(tmp_path, capsys):
    # predict and dataset building must form the same feature row, imputed cells included
    survey, scans, dae, model = (tmp_path / name for name in ("survey.csv", "scans.csv", "dae.csv", "rf.npz"))
    world = ["--spacing", "2", "--aps", "8", "--floor", "-70"]
    run_ok(["synth", "--grid", "8x6", *world, "--scans", "2", "--seed", "3", "--out", str(survey)])
    run_ok(["synth", "--grid", "8x6", *world, "--scans", "1", "--seed", "4", "--out", str(scans)])
    run_ok(["build-dataset", str(survey), "--folds", "3", "--variant", "xy", "--out", str(dae)])
    run_ok(["train", str(dae), "--family", "forest", "--trees", "10", "--out", str(model)])
    capsys.readouterr()
    run_ok(["predict", str(scans), "--model", str(model), "--map", str(survey)])
    printed = capsys.readouterr().out.splitlines()

    forest = load_model(model)
    aps = tuple(forest.metadata["context"]["ap_ids"])
    registry = ApRegistry(aps=aps, availability=(0,) * len(aps))
    holdout = build_holdout_dataset(parse_signatures(scans), parse_signatures(survey), registry, variant="xy")
    assert (holdout.X == FILL_DBM).any()  # the floor leaves cells to impute
    # the forest predicts a row alone with the same bits as in a batch, so equality is exact
    assert printed == [f"{row[-2]:.3f},{row[-1]:.3f},{forest.predict(row):.3f}" for row in holdout.X]


def test_run_full_lineup_report_layout(tmp_path, survey_csv):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "folds": 3,
        "models": [
            {"family": "linear", "label": "LR", "variant": "plain"},
            {"family": "linear", "label": "LR-xy", "variant": "xy"},
            {"family": "forest", "trees": 15, "label": "RF", "variant": "plain"},
            {"family": "forest", "trees": 15, "label": "RF-xy", "variant": "xy"},
            {"family": "knn", "k": 4, "label": "kNN", "variant": "plain"},
            {"family": "knn", "k": 4, "label": "kNN-xy", "variant": "xy"},
            {"family": "network", "layers": [8, 8], "epochs": 10, "label": "NN", "variant": "plain"},
            {"family": "network", "layers": [8, 8], "epochs": 10, "label": "NN-xy", "variant": "xy"},
        ],
    }))
    run_ok(["run", str(survey_csv), "--config", str(config), "--out", str(out), "--seed", "3"])
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[1] == "algorithm,parameters,MAE,MSE"
    labels = [line.split(",")[0] for line in lines[2:]]
    assert labels == ["LR", "LR-xy", "RF", "RF-xy", "kNN", "kNN-xy", "NN", "NN-xy"]
    for name in ("dae_plain.csv", "dae_xy.csv", "rf_xy_pairs.csv", "rf_xy_ecdf.csv", "metrics.csv"):
        assert (out / name).exists(), name


def test_run_with_holdout_adds_user_row(tmp_path, survey_csv):
    external = tmp_path / "user.csv"
    run_ok(["synth", "--grid", "3x3", "--spacing", "2.5", "--aps", "8", "--scans", "2",
            "--sigma", "3.0", "--seed", "99", "--out", str(external)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "folds": 3,
        "models": [{"family": "forest", "trees": 10, "label": "RF-xy", "variant": "xy"}],
        "holdout_models": ["RF-xy"],
    }))
    out = tmp_path / "out"
    run_ok(["run", str(survey_csv), "--config", str(config), "--out", str(out),
            "--holdout-input", str(external), "--seed", "1"])
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[-1].startswith("user,RF-xy (10),")
    assert (out / "user_rf_xy_pairs.csv").exists()


def test_run_logs_each_stage_and_then_each_report_row_in_report_order(tmp_path, survey_csv, capsys):
    external = tmp_path / "user.csv"
    run_ok(["synth", "--grid", "3x3", "--spacing", "2.5", "--aps", "8", "--scans", "2",
            "--sigma", "3.0", "--seed", "99", "--out", str(external)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "folds": 3,
        "models": [{"family": "linear"}, {"family": "knn", "k": 3, "variant": "xy"},
                   {"family": "forest", "trees": 3, "variant": "xy"}],
        "holdout_models": ["RF-xy", "LR"],
    }))
    out = tmp_path / "out"
    capsys.readouterr()
    run_ok(["run", str(survey_csv), "--config", str(config), "--out", str(out), "--holdout-input", str(external)])
    lines = capsys.readouterr().out.splitlines()
    metrics = r"MAE=\d+\.\d{3} MSE=\d+\.\d{3} pearson=(-?\d\.\d{3}|undefined)"
    expected = [
        rf"ingest: 60 signatures from {re.escape(str(survey_csv))}",
        r"registry: retained 8 APs",
        rf"dae-dataset: 60 records \(plain\) -> {re.escape(str(out / 'dae_plain.csv'))}",
        rf"dae-dataset: 60 records \(xy\) -> {re.escape(str(out / 'dae_xy.csv'))}",
        rf"holdout: 18 external signatures from {re.escape(str(external))}",
        rf"evaluate: LR: {metrics}",
        rf"evaluate: kNN-xy: {metrics}",
        rf"evaluate: RF-xy: {metrics}",
        rf"holdout: RF-xy: {metrics}",
        rf"holdout: LR: {metrics}",
        rf"report: 5 rows -> {re.escape(str(out / 'report.csv'))}",
    ]
    assert len(lines) == len(expected), lines
    for pattern, line in zip(expected, lines):
        assert re.fullmatch(pattern, line), (pattern, line)


def test_run_holdout_labels_the_external_scans_once_per_variant(tmp_path, survey_csv, monkeypatch):
    external = tmp_path / "user.csv"
    run_ok(["synth", "--grid", "3x3", "--spacing", "2.5", "--aps", "8", "--scans", "2",
            "--sigma", "3.0", "--seed", "99", "--out", str(external)])
    models = [{"family": "forest", "trees": 5, "label": "RF-xy", "variant": "xy"},
              {"family": "knn", "k": 3, "label": "kNN-xy", "variant": "xy"}]
    calls = []
    localize = daepos.dae.localize
    monkeypatch.setattr(daepos.dae, "localize", lambda *args, **kwargs: calls.append(1) or localize(*args, **kwargs))

    def run(name, holdout_models):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"folds": 3, "models": models, "holdout_models": holdout_models}))
        run_ok(["run", str(survey_csv), "--config", str(config), "--out", str(tmp_path / name),
                "--holdout-input", str(external), "--seed", "1"])
        return tmp_path / name

    both = run("both", ["RF-xy", "kNN-xy"])
    # the dataset stage labels the survey once (one variant), the holdout stage the external scans once
    assert len(calls) == len(parse_signatures(survey_csv)) + len(parse_signatures(external))
    for label, slug in (("RF-xy", "rf_xy"), ("kNN-xy", "knn_xy")):
        alone = run(slug, [label])
        for name in (f"user_{slug}_pairs.csv", f"user_{slug}_ecdf.csv"):
            # the stamp line holds the config hash, which names the holdout models
            assert (both / name).read_text().split("\n", 1)[1] == (alone / name).read_text().split("\n", 1)[1]


@pytest.mark.parametrize("fmt", ["canonical", "zenodo"])
@pytest.mark.parametrize("command", ["ingest", "build-dataset", "run"])
def test_exit_code_data_error_for_coordinate_beyond_the_bound(tmp_path, survey_csv, capsys, fmt, command):
    lines = survey_csv.read_text().splitlines()
    row = lines[4].split(",")
    row[1] = "1.7e308"  # finite, but a k-neighbour mean of such coordinates overflows
    lines[4] = ",".join(row)
    survey = tmp_path / "far.csv"
    survey.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    extra = {"ingest": [], "build-dataset": ["--folds", "3"], "run": []}[command]
    assert main([command, str(survey), "--format", fmt, *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "row 3: position coordinates must be finite and within" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "holdout_models", ["RF-xy", [["RF-xy"]], ["RF-xy", "NN"]], ids=["string", "nested-list", "unknown-label"]
)
def test_run_checks_holdout_models_before_ingest(tmp_path, survey_csv, capsys, holdout_models):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "folds": 3,
        "models": [{"family": "linear", "label": "RF-xy", "variant": "xy"}],
        "holdout_models": holdout_models,
    }))
    out = tmp_path / "out"
    argv = ["run", str(survey_csv), "--config", str(config), "--out", str(out), "--holdout-input", str(survey_csv)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: holdout") and err.count("\n") == 1, err
    assert not list(out.glob("dae_*.csv"))


@pytest.mark.parametrize(
    "key, value",
    [
        ("k", "4"),
        ("folds", "2.5"),
        ("seed", "1e400"),
        ("seed", "true"),
        ("ap_count", "true"),
        ("fill", "-99"),
        ("weighted", "true"),
        ("variant", '"both"'),
        ("fmt", '"zenodoo"'),
        ("input", "5"),
        ("out_dir", "5"),
        ("holdout_input", "5"),
    ],
    ids=["k-removed", "folds-float", "seed-huge-float", "seed-bool", "ap_count-bool", "fill-removed",
         "weighted-removed", "variant-removed", "fmt-unknown", "input-int", "out_dir-int", "holdout_input-int"],
)
def test_run_checks_config_types_before_ingest(tmp_path, survey_csv, capsys, key, value):
    out = tmp_path / "out"
    fields = {
        "input": json.dumps(str(survey_csv)),
        "out_dir": json.dumps(str(out)),
        "folds": "3",
        "models": '[{"family": "linear"}]',
        "holdout_models": '["LR"]',
        key: value,  # raw JSON text, so that 1e400 reaches the config as written
    }
    config = tmp_path / "config.json"
    config.write_text("{" + ", ".join(f'"{name}": {text}' for name, text in fields.items()) + "}")
    assert main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert key in err  # the message names the key it rejects
    assert not out.exists()  # rejected before anything is read or written


@pytest.mark.parametrize(
    "key, config, flags",
    [
        ("models", {"models": {}}, []),
        ("models", {"models": 5}, []),
        ("holdout_input", {"holdout_input": ""}, []),
        ("holdout_input", {}, ["--holdout-input", ""]),
    ],
    ids=["models-object", "models-int", "holdout_input-empty", "holdout-input-flag-empty"],
)
def test_run_names_the_malformed_key_before_ingest(tmp_path, survey_csv, capsys, key, config, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", str(survey_csv), "--config", str(path), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1, err
    assert not out.exists()


def test_every_run_flag_is_a_config_field():
    # `run` keeps only the arguments named like config fields; any other flag would be silently ignored
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in subcommands.choices["run"]._actions} - {"help", "config", "format"}
    fields = {f.name for f in dataclasses.fields(PipelineConfig)} - {"fmt", "models", "holdout_models"}
    assert dests == fields


@pytest.mark.parametrize(
    "models, holdout_models",
    [
        ([{"family": "linear"}, {"family": "knn", "label": "!!!"}], ["LR"]),
        ([{"family": "linear"}, {"family": "linear", "label": "A"}, {"family": "knn", "label": "A"}], ["LR"]),
        ([{"family": "linear"}, {"family": "forest", "trees": 5, "label": "RF xy"},
          {"family": "linear", "label": "rf-xy"}], ["LR"]),
        ([{"family": "linear"}], ["LR", "LR"]),
        ([{"family": "linear"}, {"family": "knn", "label": "user LR"}], ["LR"]),
    ],
    ids=["punctuation-only", "same-label", "same-slug", "holdout-twice", "user-prefix-clash"],
)
def test_run_rejects_labels_without_their_own_output_files_before_ingest(
    tmp_path, survey_csv, capsys, models, holdout_models
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"folds": 3, "models": models, "holdout_models": holdout_models}))
    out = tmp_path / "out"
    argv = ["run", str(survey_csv), "--config", str(config), "--out", str(out), "--holdout-input", str(survey_csv)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model") and err.count("\n") == 1, err
    assert not out.exists()


def test_exit_code_config_error_for_bad_folds(tmp_path, survey_csv):
    assert main(["build-dataset", str(survey_csv), "--folds", "1", "--out", str(tmp_path / "x.csv")]) == 1


def test_exit_code_config_error_for_bad_flag_value(tmp_path, survey_csv):
    assert main(["build-dataset", str(survey_csv), "--grouping", "by_magic",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["nonsense-command"]) == 1
    # rejected before the (absent) dataset is read
    for flags in (["network", "--epochs", "0"], ["network", "--layers", "8,0"], ["forest", "--trees", "0"]):
        assert main(["train", str(tmp_path / "absent.csv"), "--family", *flags,
                     "--out", str(tmp_path / "m.npz")]) == 1


# Widths whose parameter count no host can allocate: numpy refuses the buffer before allocating.
# With the Adam step a constant, they are the fit failure that a setting can still reach.
_OVERSIZED_LAYERS = [2**40, 2**40]


@pytest.mark.parametrize("command", ["train", "run"])
def test_diverged_network_training_is_a_one_line_config_error(tmp_path, trained_models, capsys, command):
    if command == "train":
        out = tmp_path / "nn.npz"
        argv = ["train", str(trained_models / "dae.csv"), "--family", "network",
                "--layers", ",".join(map(str, _OVERSIZED_LAYERS)), "--out", str(out)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "folds": 3, "models": [{"family": "network", "layers": _OVERSIZED_LAYERS, "epochs": 2}]
        }))
        out = tmp_path / "run" / "nn_pairs.csv"
        argv = ["run", str(trained_models / "survey.csv"), "--config", str(config), "--out", str(out.parent)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]  # numpy's overflow warnings
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"network layers {_OVERSIZED_LAYERS} need " in err and "parameters" in err, err
    assert not out.exists()


def test_diverged_network_run_fails_alike_with_one_and_two_workers_and_adds_no_file(
    tmp_path, trained_models, capsys, monkeypatch
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"folds": 3, "models": [
        {"family": "forest", "trees": 2, "variant": "xy"},
        {"family": "network", "layers": _OVERSIZED_LAYERS, "epochs": 2},
    ]}))
    survey = str(trained_models / "survey.csv")
    (tmp_path / "kept").mkdir()
    (tmp_path / "kept" / "notes.txt").write_text("not the run's\n")
    errors = []
    for workers, out in ((1, tmp_path / "new"), (2, tmp_path / "new"), (2, tmp_path / "kept")):
        monkeypatch.setattr(daepos.pipeline, "_worker_count", lambda n_tasks, workers=workers: min(workers, n_tasks))
        assert main(["run", survey, "--config", str(config), "--out", str(out)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: stage evaluate: ") and errors[0].count("\n") == 1, errors[0]
    assert errors == [errors[0]] * 3
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "kept"]  # no staging directory left
    assert [path.name for path in (tmp_path / "kept").iterdir()] == ["notes.txt"]


@pytest.mark.parametrize("name, value", [("learning_rate", 0.01), ("batch_size", 8)])
def test_network_step_and_batch_size_are_not_settable(tmp_path, trained_models, capsys, name, value):
    flag = f"--{name.replace('_', '-')}"
    out = tmp_path / "nn.npz"
    argv = ["train", str(trained_models / "dae.csv"), "--family", "network", flag, str(value), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"folds": 3, "models": [{"family": "network", "epochs": 1, name: value}]}))
    run_out = tmp_path / "run"
    assert main(["run", str(trained_models / "survey.csv"), "--config", str(config), "--out", str(run_out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model entry") and f"unexpected keyword argument '{name}'" in err, err
    assert err.count("\n") == 1 and sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


def test_unguarded_caller_script_fails_fast_with_one_line(tmp_path, trained_models):
    shutil.copy(trained_models / "survey.csv", tmp_path / "survey.csv")
    (tmp_path / "config.json").write_text(json.dumps({"folds": 3, "models": [{"family": "forest", "trees": 2}]}))
    # no `if __name__ == "__main__":`, so every spawned worker runs this script again
    (tmp_path / "caller.py").write_text(
        "import sys\n"
        "import daepos.pipeline\n"
        "from daepos.cli import main\n"
        "daepos.pipeline._worker_count = lambda n_tasks: 2  # two workers, whatever the core count\n"
        "sys.exit(main(['run', 'survey.csv', '--config', 'config.json', '--out', 'out']))\n"
    )
    src = str(Path(daepos.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # its own session, so that whatever it leaves running is found by process group
    caller = subprocess.Popen([sys.executable, "caller.py"], cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = caller.communicate(timeout=60)
    finally:
        try:
            os.killpg(caller.pid, 0)
            left_running = True
            os.killpg(caller.pid, signal.SIGKILL)
            caller.wait()
        except ProcessLookupError:
            left_running = False
    assert not left_running
    assert caller.returncode == 1
    assert stderr.startswith("error: stage evaluate: ") and stderr.count("\n") == 1, stderr
    assert "__main__" in stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == ["caller.py", "config.json", "survey.csv"]


@pytest.mark.parametrize(
    "flags",
    [["build-dataset", "--ap-count", "0"], ["build-dataset", "--seed", "-1"]],
    ids=["build-dataset-ap-count", "build-dataset-seed-negative"],
)
def test_exit_code_config_error_for_non_positive_count_flag(tmp_path, trained_models, capsys, flags):
    command, *rest = flags
    assert main([command, str(trained_models / "survey.csv"), *rest, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "flags", [["--family", "forest", "--trees", str(2**70)], ["--family", "network", "--epochs", str(10**6 + 1)]],
    ids=["trees-2**70", "epochs-above-the-bound"],
)
def test_train_refuses_a_count_above_the_bound_in_one_line(tmp_path, trained_models, capsys, flags):
    # 2**70 trees overflowed numpy's SeedSequence.spawn in a traceback; a million epochs never end
    out = tmp_path / "model.npz"
    assert main(["train", str(trained_models / "dae.csv"), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flags[2][2:]} must be at most 1000000, got {flags[3]}\n"
    assert not out.exists()


@pytest.mark.parametrize("edit", ["spec-trees-huge", "spec-epochs-huge"])
def test_evaluate_refuses_a_model_file_whose_count_exceeds_the_bound(tmp_path, trained_models, capsys, edit):
    family, prefix = _CORRUPT_ARCHIVES[edit]
    model = _corrupted(tmp_path, trained_models, family, edit)
    out = tmp_path / "out"
    assert main(["evaluate", "--model", str(model), "--data", str(trained_models / "dae.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-dataset", "predict", "run"])
def test_positioning_k_is_not_an_option(tmp_path, trained_models, capsys, command):
    # every command locates with DEFAULT_K, the k its error models were trained on
    survey = str(trained_models / "survey.csv")
    out = tmp_path / "out"
    argv = {
        "build-dataset": ["build-dataset", survey, "--out", str(out)],
        "predict": ["predict", survey, "--model", str(trained_models / "linear.npz"), "--map", survey],
        "run": ["run", survey, "--out", str(out)],
    }[command]
    assert main([*argv, "--k", "3"]) == 1
    out_text, err = capsys.readouterr()
    assert err == "error: unrecognized arguments: --k 3\n" and not out_text
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--sigma", "nan"], ["--sigma", "inf"], ["--exponent", "nan"], ["--exponent", "inf"], ["--spacing", "nan"],
     ["--spacing", "inf"], ["--spacing", "1e308"], ["--spacing", "6e307"], ["--spacing", "6e8"], ["--seed", "-1"],
     ["--grid", "4by3"]],
    ids=["sigma-nan", "sigma-inf", "exponent-nan", "exponent-inf", "spacing-nan", "spacing-inf",
         "spacing-extent-overflow", "spacing-perimeter-overflow", "spacing-extent-beyond-coordinate-bound",
         "seed-negative", "grid-unparseable"],
)
def test_synth_exit_code_config_error_for_out_of_range_flag(tmp_path, capsys, flags):
    out = tmp_path / "survey.csv"
    assert main(["synth", "--grid", "3x3", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("names", ["a,a", "a,"], ids=["duplicate", "empty"])
def test_exit_code_data_error_for_bad_dataset_feature_columns(tmp_path, trained_models, capsys, names):
    dae = tmp_path / "dae.csv"
    dae.write_text(f"point_id,fold,{names},delta_pos\np,0,{'-60,' * (names.count(',') + 1)}1.5\n")
    for argv in (["train", str(dae), "--family", "linear", "--out", str(tmp_path / "m.npz")],
                 ["evaluate", "--model", str(trained_models / "linear.npz"), "--data", str(dae),
                  "--out", str(tmp_path / "ev")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dataset feature columns") and err.count("\n") == 1, err
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize(
    "text, prefix",
    [
        ("", "error: empty dataset file"),
        ("id,fold,a,delta_pos\np,0,-60,1.5\n", "error: dataset header must be"),
        ("point_id,fold,x_est,y_est,delta_pos\np,0,1.0,2.0,1.5\n", "error: dataset has no RSSI feature columns"),
        ("point_id,fold,a,delta_pos\np,0,-60\n", "error: row 1: expected 4 cells, got 3"),
        ("point_id,fold,a,delta_pos\np,0,loud,1.5\n", "error: row 1: could not convert"),
        ("point_id,fold,a,delta_pos\n", "error: dataset file has a header but no records"),
    ],
    ids=["empty", "bad-header", "no-rssi-column", "short-row", "non-numeric-cell", "header-only"],
)
def test_exit_code_data_error_for_malformed_dataset_file(tmp_path, capsys, text, prefix):
    dae = tmp_path / "dae.csv"
    dae.write_text(text)
    assert main(["train", str(dae), "--family", "linear", "--out", str(tmp_path / "m.npz")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert not (tmp_path / "m.npz").exists()


def _spoil_dataset(source: Path, dest: Path, spoil: str) -> None:
    """Copy a dataset CSV with cells beyond the bounds that the package's own datasets keep."""
    comment, header, *rows = source.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    for i, row in enumerate(cells):
        if spoil == "feature-1.7e308":  # first AP column alternating +-1.7e308
            row[2] = repr(1.7e308 if i % 2 == 0 else -1.7e308)
        elif spoil == "labels-1.7e308":
            row[-1] = repr(1.7e308)
        elif spoil == "third-of-labels-1e300" and i % 3 == 0:
            row[-1] = "1e300"
    dest.write_text("\n".join([comment, header, *map(",".join, cells)]) + "\n")


@pytest.mark.parametrize(
    "spoil, argv, message",
    [
        ("feature-1.7e308", ["train", "--family", "linear"], "feature cells must lie within +-1e+09"),
        ("feature-1.7e308", ["train", "--family", "network", "--layers", "8,8", "--epochs", "2"],
         "feature cells must lie within +-1e+09"),
        ("labels-1.7e308", ["train", "--family", "forest", "--trees", "2"], "delta_pos must lie in [0, 3e+09]"),
        *[("third-of-labels-1e300", ["evaluate", "--model", f"{family}.npz"], "delta_pos must lie in [0, 3e+09]")
          for family in ("linear", "knn", "forest", "network")],
    ],
    ids=["train-linear-feature", "train-network-feature", "train-forest-labels",
         *[f"evaluate-{family}-labels" for family in ("linear", "knn", "forest", "network")]],
)
def test_exit_code_data_error_for_dataset_cells_beyond_the_bounds(
    tmp_path, trained_models, capsys, spoil, argv, message
):
    dae = tmp_path / "dae.csv"
    _spoil_dataset(trained_models / "dae.csv", dae, spoil)
    out = tmp_path / "out"
    if argv[0] == "train":
        argv = [*argv[:1], str(dae), *argv[1:], "--out", str(out)]
    else:
        argv = ["evaluate", "--model", str(trained_models / argv[2]), "--data", str(dae), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: row 1: {message}") and err.count("\n") == 1, err
    assert not out.exists()


def test_evaluate_rejects_a_model_whose_width_differs_from_the_data(tmp_path, trained_models, capsys):
    xy = tmp_path / "dae_xy.csv"
    run_ok(["build-dataset", str(trained_models / "survey.csv"), "--folds", "3", "--variant", "xy", "--out", str(xy)])
    model = tmp_path / "forest_xy.npz"
    run_ok(["train", str(xy), "--family", "forest", "--trees", "2", "--out", str(model)])
    out = tmp_path / "out"
    assert main(["evaluate", "--model", str(model), "--data", str(trained_models / "dae.csv"), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: feature width mismatch: model expects 10, dataset has 8\n"
    assert not out.exists()


@pytest.mark.parametrize("spoiled", ["dataset", "holdout", "context"])
def test_evaluate_rejects_a_dataset_whose_columns_differ_from_the_model(tmp_path, trained_models, capsys, spoiled):
    # same width, other AP columns: the forest would score columns it was never trained on
    dae = trained_models / "dae.csv"
    comment, header, *rows = dae.read_text().splitlines()
    other = tmp_path / "dae_other.csv"
    other.write_text("\n".join([comment, header.replace(",ap", ",zz"), *rows]) + "\n")
    model = trained_models / "forest.npz"
    if spoiled == "context":  # a second list of column names beside the context: refused when the file is loaded
        model = _corrupted(tmp_path, trained_models, "forest", "context-extra-key")
    data, holdout = (other, dae) if spoiled == "dataset" else (dae, other)
    out = tmp_path / "out"
    argv = ["evaluate", "--model", str(model), "--data", str(data), "--holdout", str(holdout), "--out", str(out)]
    names = header.split(",")[2:-1]
    renamed = [name.replace("ap", "zz") for name in names]
    code, expected = {
        "dataset": (3, f"feature columns differ: model has {names}, dataset has {renamed}"),
        "holdout": (3, f"feature columns differ: model has {names}, holdout has {renamed}"),
        "context": (2, "model context must hold exactly ap_ids and variant, got ['ap_ids', 'feature_names', 'variant']"),
    }[spoiled]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


def test_too_few_map_scans_name_the_positioner_not_a_k(tmp_path, trained_models, capsys):
    survey = trained_models / "survey.csv"
    comment, header, *rows = survey.read_text().splitlines()
    small = tmp_path / "small.csv"
    small.write_text("\n".join([comment, header, *rows[:3]]) + "\n")
    assert main(["build-dataset", str(small), "--folds", "2", "--out", str(tmp_path / "dae.csv")]) == 2
    assert main(["predict", str(survey), "--model", str(trained_models / "linear.npz"), "--map", str(small)]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors == [
        "error: fold 0: map would have 1 signatures; the positioner needs 4 map scans",
        "error: radio map has 3 entries; the positioner needs 4 map scans",
    ]


# Each case names the file it spoils: "latin1" gets one Latin-1 byte, "huge-cell" one
# cell of 200,000 characters, beyond the csv module's field limit.
_UNREADABLE_CSV_CASES = {
    "ingest-latin1": (["ingest", "{bad}", "--out", "{out}"], "survey", "latin1"),
    "ingest-huge-cell": (["ingest", "{bad}", "--out", "{out}"], "survey", "huge-cell"),
    "build-dataset-latin1": (["build-dataset", "{bad}", "--out", "{out}"], "survey", "latin1"),
    "train-latin1-dataset": (["train", "{bad}", "--family", "linear", "--out", "{out}"], "dataset", "latin1"),
    "predict-latin1-scans": (["predict", "{bad}", "--model", "{linear}", "--map", "{survey}"], "survey", "latin1"),
    "predict-huge-cell-map": (["predict", "{survey}", "--model", "{linear}", "--map", "{bad}"], "survey", "huge-cell"),
    "run-latin1-holdout": (["run", "{survey}", "--holdout-input", "{bad}", "--out", "{out}"], "survey", "latin1"),
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE_CSV_CASES))
def test_exit_code_data_error_for_undecodable_or_unsplittable_csv(tmp_path, trained_models, capsys, case):
    argv, spoiled, spoil = _UNREADABLE_CSV_CASES[case]
    good = trained_models / ("survey.csv" if spoiled == "survey" else "dae.csv")
    bad = tmp_path / "bad.csv"
    if spoil == "latin1":
        bad.write_bytes(good.read_bytes().replace(b"\np", b"\np\xe9", 1))
    else:
        bad.write_bytes(good.read_bytes() + b"p9," + b"1" * 200_000 + b"\n")
    out = tmp_path / "out"
    paths = {"bad": bad, "out": out, "survey": trained_models / "survey.csv", "linear": trained_models / "linear.npz"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    reason = "not UTF-8 text" if spoil == "latin1" else "malformed CSV: field larger than field limit"
    assert err.startswith("error: ") and f"{bad}: {reason}" in err and err.count("\n") == 1, err
    assert not out.exists()  # `run` leaves no out_dir, and the other commands write no file


@pytest.mark.parametrize(
    "data, message",
    [
        (b"{not json", "Expecting property name"),
        (b"[1, 2]", "must contain a JSON object"),
        (b'{"folds": "\xe9"}', "can't decode byte 0xe9"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["invalid-json", "json-list", "not-utf8", "nested-too-deeply"],
)
def test_run_exit_code_config_error_for_unreadable_config_file(tmp_path, survey_csv, capsys, data, message):
    config = tmp_path / "config.json"
    config.write_bytes(data)
    out = tmp_path / "out"
    assert main(["run", str(survey_csv), "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config}") and message in err and err.count("\n") == 1, err
    assert not out.exists()


def test_run_config_file_may_start_with_a_byte_order_mark(tmp_path, survey_csv):
    text = json.dumps({"folds": 3, "models": [{"family": "linear"}]})
    outputs = []
    for name, data in (("plain.json", text.encode()), ("bom.json", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).write_bytes(data)
        out = tmp_path / "out"
        run_ok(["run", str(survey_csv), "--config", str(tmp_path / name), "--out", str(out)])
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        shutil.rmtree(out)
    assert outputs[0] and outputs[1] == outputs[0]


@pytest.mark.parametrize("layers", ["a,b", ","], ids=["not-integers", "no-width"])
def test_train_exit_code_config_error_for_unparseable_layers(tmp_path, trained_models, capsys, layers):
    out = tmp_path / "nn.npz"
    argv = ["train", str(trained_models / "dae.csv"), "--family", "network", "--layers", layers, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "layer width" in err and err.count("\n") == 1, err
    assert not out.exists()


def test_exit_code_data_error_for_missing_file(tmp_path):
    assert main(["ingest", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "out.csv")]) == 2


def test_exit_code_data_error_for_malformed_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    assert main(["ingest", str(bad), "--out", str(tmp_path / "out.csv")]) == 2


def test_exit_code_contract_error_for_width_mismatch(tmp_path, survey_csv):
    plain = tmp_path / "plain.csv"
    xy = tmp_path / "xy.csv"
    run_ok(["build-dataset", str(survey_csv), "--folds", "3", "--out", str(plain)])
    run_ok(["build-dataset", str(survey_csv), "--folds", "3", "--variant", "xy", "--out", str(xy)])
    model = tmp_path / "m.bin"
    run_ok(["train", str(plain), "--family", "linear", "--out", str(model)])
    assert main(["evaluate", "--model", str(model), "--data", str(plain),
                 "--holdout", str(xy), "--out", str(tmp_path / "e")]) == 3


def test_run_rejects_unknown_config_keys(tmp_path, survey_csv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fold_count": 5}))
    assert main(["run", str(survey_csv), "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_run_reports_failing_stage_by_name(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "stage ingest" in capsys.readouterr().err


@pytest.mark.parametrize("fill", ["nan", "inf", "-inf", "-99"])
def test_exit_code_config_error_for_non_finite_fill(tmp_path, trained_models, capsys, fill):
    # no command takes --fill, a finite value included: the imputation value is the constant FILL_DBM
    survey = str(trained_models / "survey.csv")
    out = tmp_path / "out"
    for argv in (
        ["build-dataset", survey, "--out", str(out)],
        ["predict", survey, "--model", str(trained_models / "forest.npz"), "--map", survey],
        ["run", survey, "--out", str(out)],
    ):
        assert main([*argv, "--fill", fill]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    ("cell", "column"),  # column 1 is the fold, 2 the first RSSI feature, -1 the delta_pos label
    [("nan", 2), ("nan", -1), ("inf", 2), ("inf", -1), ("-0.5", -1), (str(10**30), 1)],
)
def test_exit_code_data_error_for_non_finite_dataset_cell(tmp_path, survey_csv, column, cell):
    dae = tmp_path / "dae.csv"
    run_ok(["build-dataset", str(survey_csv), "--folds", "3", "--out", str(dae)])
    lines = dae.read_text().splitlines()
    row = lines[3].split(",")
    row[column] = cell
    lines[3] = ",".join(row)
    dae.write_text("\n".join(lines) + "\n")
    assert main(["train", str(dae), "--family", "knn", "--out", str(tmp_path / "m.bin")]) == 2
    assert not (tmp_path / "m.bin").exists()


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A plain survey dataset plus one small model file per family."""
    root = tmp_path_factory.mktemp("models")
    survey = root / "survey.csv"
    dae = root / "dae.csv"
    run_ok(["synth", "--grid", "5x4", "--aps", "8", "--scans", "3", "--seed", "11", "--out", str(survey)])
    run_ok(["build-dataset", str(survey), "--folds", "3", "--out", str(dae)])
    family_flags = {
        "linear": [],
        "knn": ["--neighbors", "3"],
        "forest": ["--trees", "2"],
        "network": ["--layers", "8,8", "--epochs", "2"],
    }
    for family, flags in family_flags.items():
        run_ok(["train", str(dae), "--family", family, *flags, "--out", str(root / f"{family}.npz")])
    return root


def _corrupt(arrays: dict, edit: str) -> None:
    """Apply one named edit to the arrays of a saved model file."""
    meta = json.loads(str(arrays["meta_json"]))
    if edit == "left-self-loop":
        assert arrays["feature"][0] >= 0  # the first root is a split node
        arrays["left"][0] = 0
    elif edit == "feature-out-of-range":
        assert arrays["feature"][0] >= 0
        arrays["feature"][0] = meta["input_width"]
    elif edit == "offsets-past-end":
        arrays["offsets"][-1] += 1
    elif edit.startswith("no-"):
        del arrays[edit[len("no-"):]]
    elif edit.endswith("-shape"):
        name = edit[: -len("-shape")]
        arrays[name] = arrays[name][..., :-1]
    elif edit.endswith("-nan"):
        arrays[edit[: -len("-nan")]].flat[0] = np.nan
    elif edit == "running_var0-negated":
        arrays["running_var0"] = -arrays["running_var0"]
        assert (arrays["running_var0"] < 0).any()
    elif edit == "scaler_std-zero":
        arrays["scaler_std"][0] = 0.0
    elif edit == "meta-not-json":
        arrays["meta_json"] = np.array("{not json")
    elif edit.startswith("meta-no-"):
        del meta[edit[len("meta-no-"):]]
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit == "spec-unknown-key":
        meta["spec"]["bogus"] = 1
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit == "spec-k-bool":
        meta["spec"]["k"] = True
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit in ("spec-trees-huge", "spec-epochs-huge"):
        meta["spec"][edit.split("-")[1]] = 2**70
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit == "spec-family-knn":  # the family entry still says forest; the spec's family is the one read
        meta["spec"]["family"] = "knn"
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit in ("spec-learning_rate", "spec-batch_size"):  # network settings of format version 2
        meta["spec"][edit[len("spec-"):]] = 1
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit == "format-version-2":  # a file as version 2 wrote it
        meta.update(format_version=2, spec={**meta["spec"], "learning_rate": 1e-3, "batch_size": 32})
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit == "format-version-3":  # a file as version 3 wrote it: the context beside the metadata
        context = meta["metadata"].pop("context")
        names = [*context["ap_ids"], *(("x_est", "y_est") if context["variant"] == "xy" else ())]
        meta.update(format_version=3, family=meta["spec"]["family"], context={**context, "feature_names": names})
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit == "offsets-float":
        arrays["offsets"] = arrays["offsets"].astype(float)
    elif edit == "offsets-not-increasing":
        arrays["offsets"][1] = 0  # the first tree gets no nodes
    elif edit == "coef-text":
        arrays["coef"] = arrays["coef"].astype(str)
    elif edit == "spec-k-above-rows":
        meta["spec"]["k"] = len(arrays["train_x"]) + 1
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit == "context-none":
        del meta["metadata"]["context"]
        arrays["meta_json"] = np.array(json.dumps(meta))
    elif edit.startswith("context-"):
        context = meta["metadata"]["context"]
        ap_ids = context["ap_ids"]
        context.update({
            "context-ap_ids-duplicate": {"ap_ids": [ap_ids[0], *ap_ids[:-1]]},
            "context-ap_ids-integer": {"ap_ids": [0, *ap_ids[1:]]},
            "context-ap_ids-string": {"ap_ids": ",".join(ap_ids)},
            "context-ap_ids-empty": {"ap_ids": []},
            "context-variant-unknown": {"variant": "xyz"},
            "context-width": {"ap_ids": ap_ids[:-1]},
            "context-variant-xy": {"variant": "xy"},  # the width of the plain model is then two short
            "context-extra-key": {"feature_names": ap_ids},  # what version 3 also wrote
        }[edit])
        arrays["meta_json"] = np.array(json.dumps(meta))
    else:
        raise AssertionError(edit)


# edit: (family of the edited model file, start of the expected stderr line)
_CORRUPT_ARCHIVES = {
    "left-self-loop": ("forest", "error: forest"),
    "feature-out-of-range": ("forest", "error: forest"),
    "offsets-past-end": ("forest", "error: forest"),
    "no-value": ("forest", "error: forest model file lacks"),
    "no-coef": ("linear", "error: linear model file lacks"),
    "no-train_y": ("knn", "error: knn model file lacks"),
    "train_x-shape": ("knn", "error: knn array 'train_x'"),
    "no-running_var0": ("network", "error: network model file lacks"),
    "no-param_W1": ("network", "error: network model file lacks"),
    "param_W1-shape": ("network", "error: network array 'param_W1'"),
    "scaler_std-shape": ("network", "error: network array 'scaler_std'"),
    "param_W0-nan": ("network", "error: network array 'param_W0' holds non-finite"),
    "running_var0-negated": ("network", "error: network array 'running_var0' holds a negative"),
    "scaler_std-zero": ("network", "error: network array 'scaler_std' must be positive"),
    "threshold-nan": ("forest", "error: forest array 'threshold' holds non-finite"),
    "meta-not-json": ("linear", "error: model metadata is not JSON"),
    "meta-no-spec": ("knn", "error: model metadata entries missing"),
    "meta-no-input_width": ("forest", "error: model metadata entries missing"),
    "spec-unknown-key": ("network", "error: model spec"),
    "spec-k-bool": ("knn", "error: model spec: k must be an integer"),
    "spec-family-knn": ("forest", "error: knn model file lacks"),
    "spec-trees-huge": ("forest", f"error: model spec: trees must be at most 1000000, got {2**70}"),
    "spec-epochs-huge": ("network", f"error: model spec: epochs must be at most 1000000, got {2**70}"),
    "spec-learning_rate": ("network", "error: model spec: ModelSpec.__init__() got an unexpected keyword argument"),
    "spec-batch_size": ("network", "error: model spec: ModelSpec.__init__() got an unexpected keyword argument"),
    "format-version-2": ("network", "error: unsupported model format version 2; this daepos reads version 4"),
    "format-version-3": ("forest", "error: unsupported model format version 3; this daepos reads version 4"),
    "context-none": ("forest", "error: model context must hold exactly ap_ids and variant, got NoneType"),
    "context-ap_ids-duplicate": ("forest", "error: model context ap_ids"),
    "context-ap_ids-integer": ("forest", "error: model context ap_ids"),
    "context-ap_ids-string": ("forest", "error: model context ap_ids"),
    "context-ap_ids-empty": ("forest", "error: model context ap_ids"),
    "context-variant-unknown": ("forest", "error: model context variant"),
    "context-width": ("forest", "error: model width 8 does not match its context width 7"),
    "context-variant-xy": ("knn", "error: model width 8 does not match its context width 10"),
    "context-extra-key": ("forest", "error: model context must hold exactly ap_ids and variant, got ['ap_ids', "
                                    "'feature_names', 'variant']"),
    "truncated": ("forest", "error: not a model file"),
    "text": ("linear", "error: not a model file: not an npz archive"),
    "lone-npy": ("linear", "error: not a model file: not an npz archive"),
    "offsets-float": ("forest", "error: forest offsets, feature indices and child links must be integers"),
    "offsets-not-increasing": ("forest", "error: forest offsets must be increasing"),
    "coef-text": ("linear", "error: linear array 'coef' must be numeric"),
    "spec-k-above-rows": ("knn", "error: knn model file: k="),
}


@pytest.mark.parametrize("edit", list(_CORRUPT_ARCHIVES))
def test_predict_exit_code_data_error_for_corrupt_forest_archive(tmp_path, trained_models, edit):
    family, prefix = _CORRUPT_ARCHIVES[edit]
    model = tmp_path / "model.npz"
    if edit == "truncated":
        model.write_bytes((trained_models / f"{family}.npz").read_bytes()[:200])
    elif edit == "text":
        model.write_text("point_id,x,y\n")
    elif edit == "lone-npy":
        with open(model, "wb") as f:
            np.save(f, np.zeros(3))
    else:
        model = _corrupted(tmp_path, trained_models, family, edit)
    # a child link that loops would make predict spin forever, so run it in a child process
    env = {**os.environ, "PYTHONPATH": str(Path(daepos.__file__).parents[1])}
    survey = str(trained_models / "survey.csv")
    argv = ["predict", survey, "--model", str(model), "--map", survey]
    result = subprocess.run(
        [sys.executable, "-m", "daepos.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(prefix)
    assert result.stderr.count("\n") == 1, result.stderr  # one line, no traceback
    assert "allow_pickle" not in result.stderr  # no advice to load an untrusted file unsafely


def _corrupted(tmp_path, trained_models, family: str, edit: str) -> Path:
    """A copy of the trained ``family`` model file with one ``_corrupt`` edit."""
    with np.load(trained_models / f"{family}.npz") as data:
        arrays = {name: data[name] for name in data.files}
    _corrupt(arrays, edit)
    model = tmp_path / "model.npz"
    np.savez_compressed(model, **arrays)
    return model


@pytest.mark.parametrize("holdout", [False, True], ids=["cross_fit", "holdout"])
@pytest.mark.parametrize(
    "edit", ["context-none", "context-width", "context-variant-xy", "context-extra-key", "format-version-3"]
)
def test_evaluate_exit_code_data_error_for_a_bad_model_context(tmp_path, trained_models, capsys, edit, holdout):
    # evaluate reads the same context as predict, so it refuses the same files with the same line
    family, prefix = _CORRUPT_ARCHIVES[edit]
    model = _corrupted(tmp_path, trained_models, family, edit)
    dae, out = str(trained_models / "dae.csv"), tmp_path / "out"
    argv = ["evaluate", "--model", str(model), "--data", dae, "--out", str(out), *(["--holdout", dae] * holdout)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "entry",
    [
        {"family": "forest", "bogus": 1},
        {"family": "network", "layers": "8,x"},
        {"family": "network", "layers": "88"},  # not read as widths 8 and 8
        {"family": "knn", "k": "four"},
        "RF",
        {"family": "knn", "k": True},
        {"family": "forest", "trees": 2.5},
        {"family": "network", "layers": [2.7]},
        {"family": "network", "learning_rate": 1e-3},  # a constant of the network now
        {"family": "forest", "max_depth": 3},  # not a ModelSpec field
        {"family": "linear", "label": 5},
        {"family": "linear", "label": True},
        {"family": "linear", "label": ""},
        {"family": "linear", "spec": {"family": "knn"}, "label": "X"},  # one entry form: the keys are the spec
    ],
    ids=["unknown-key", "layers-text", "layers-digits", "k-text", "not-an-object", "k-bool", "trees-float",
         "layers-float", "learning_rate-removed", "forest-max_depth", "label-int", "label-bool", "label-empty",
         "spec-nested"],
)
def test_run_exit_code_config_error_for_malformed_model_entry(tmp_path, survey_csv, capsys, entry):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"models": [entry]}))
    assert main(["run", str(survey_csv), "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model entry") and err.count("\n") == 1, err


def test_stamps_match_pinned_digests(tmp_path, monkeypatch):
    # A stamp is the identity of every file made under it, so its parameter set and
    # the spec JSON of model files are pinned. Relative paths: the arguments are hashed as given.
    monkeypatch.chdir(tmp_path)
    run_ok(["synth", "--grid", "4x3", "--aps", "6", "--scans", "2", "--seed", "5", "--out", "survey.csv"])
    run_ok(["ingest", "survey.csv", "--out", "ingested.csv"])
    run_ok(["build-dataset", "survey.csv", "--folds", "3", "--variant", "xy", "--out", "dae.csv"])
    run_ok(["train", "dae.csv", "--family", "network", "--layers", "4,3", "--epochs", "2", "--seed", "6",
            "--out", "nn.model"])
    run_ok(["train", "dae.csv", "--family", "knn", "--neighbors", "3", "--out", "knn.model"])
    run_ok(["evaluate", "--model", "knn.model", "--data", "dae.csv", "--out", "ev"])
    config = {"folds": 3, "models": [{"family": "linear", "label": "LR-xy", "variant": "xy"}]}
    Path("cfg.json").write_text(json.dumps(config))
    run_ok(["run", "survey.csv", "--config", "cfg.json", "--out", "run", "--seed", "2"])
    stamps = {
        name: Path(name).read_text().splitlines()[0]
        for name in ("survey.csv", "ingested.csv", "dae.csv", "ev/report.csv", "ev/pairs.csv", "ev/ecdf.csv",
                     "run/report.csv")
    }
    evaluate = "# config_hash=22764139131a seed=0"
    assert stamps == {
        "survey.csv": "# config_hash=2b2d2ee46eb2 seed=5",
        "ingested.csv": "# config_hash=3463ca24869b seed=0",
        "dae.csv": "# config_hash=e90ecdfde584 seed=0",
        "ev/report.csv": evaluate,
        "ev/pairs.csv": evaluate,
        "ev/ecdf.csv": evaluate,
        "run/report.csv": "# config_hash=69437e26aefa seed=2",
    }
    specs = []
    for name in ("nn.model", "knn.model"):
        with np.load(name) as data:
            specs.append(json.loads(str(data["meta_json"]))["spec"])
    defaults = {"epochs": 200, "k": 4, "layers": [128, 128, 128], "seed": 0, "trees": 100}
    assert specs == [
        {**defaults, "family": "network", "epochs": 2, "layers": [4, 3], "seed": 6},
        {**defaults, "family": "knn", "k": 3},
    ]


# one changed value per argument; None marks a flag that takes no value
_ARGUMENT_CHANGES = {
    "synth": {"--grid": "3x4", "--spacing": "2.5", "--aps": "7", "--scans": "2", "--sigma": "1.5",
              "--exponent": "3", "--tx-power": "-41", "--floor": "-90", "--seed": "6"},
    "build-dataset": {"input": "copy.csv", "--format": "zenodo", "--ap-count": "5", "--folds": "4",
                      "--grouping": "by_point", "--variant": "xy", "--seed": "1"},
}


@pytest.mark.parametrize("command", sorted(_ARGUMENT_CHANGES))
def test_stamp_changes_with_every_argument_but_out(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    arguments = {
        (action.option_strings or [action.dest])[0]
        for action in subcommands.choices[command]._actions
        if action.dest not in ("help", "out")
    }
    changes = _ARGUMENT_CHANGES[command]
    assert arguments == set(changes)
    run_ok(["synth", "--grid", "4x3", "--aps", "6", "--scans", "2", "--seed", "5", "--out", "survey.csv"])
    shutil.copy("survey.csv", "copy.csv")
    base = [command, "--seed", "5"] if command == "synth" else [command, "survey.csv", "--folds", "3"]

    def stamp(argv, out="out.csv"):
        run_ok([*argv, "--out", out])
        return Path(out).read_text().splitlines()[0]

    first = stamp(base)
    assert stamp(base, out="elsewhere.csv") == first
    for argument, value in changes.items():
        if argument == "input":
            argv = [command, value, *base[2:]]
        else:
            argv = [*base, argument] if value is None else [*base, argument, value]
        assert stamp(argv) != first, argument
