import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import daepos
from daepos import ApRegistry, build_holdout_dataset, load_model, parse_signatures, read_dae_dataset
from daepos.cli import build_parser, main
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
    run_ok(["predict", str(scans), "--model", str(model), "--map", str(survey_csv), "--k", "4"])
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 3
    for line in lines:
        x, y, radius = (float(c) for c in line.split(","))
        assert radius >= 0.0


def test_predict_zero_radius_for_memorized_exact_match(tmp_path, capsys):
    # noise-free world: sibling scans coincide, so a k=1 map hit is exact and
    # a dataset built with one scan per fold-complement yields zero labels
    survey = tmp_path / "exact.csv"
    run_ok(["synth", "--grid", "4x4", "--spacing", "2", "--aps", "6", "--scans", "3",
            "--sigma", "0", "--seed", "4", "--out", str(survey)])
    dae = tmp_path / "dae.csv"
    run_ok(["build-dataset", str(survey), "--folds", "3", "--k", "1", "--seed", "1",
            "--out", str(dae)])
    dataset = read_dae_dataset(dae)
    model = tmp_path / "knn1.bin"
    run_ok(["train", str(dae), "--family", "knn", "--neighbors", "1", "--out", str(model)])
    capsys.readouterr()
    run_ok(["predict", str(survey), "--model", str(model), "--map", str(survey), "--k", "1"])
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 48
    # scans identical to map entries: distance-zero hits both for the position
    # and for the error lookup, so most predicted radii collapse to zero
    radii = np.array([float(l.split(",")[2]) for l in lines])
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


def test_predict_prints_the_holdout_dataset_row_of_every_scan(tmp_path, capsys):
    # predict and dataset building must form the same feature row, imputed cells included
    survey, scans, dae, model = (tmp_path / name for name in ("survey.csv", "scans.csv", "dae.csv", "rf.npz"))
    world = ["--spacing", "2", "--aps", "8", "--floor", "-70"]
    run_ok(["synth", "--grid", "8x6", *world, "--scans", "2", "--seed", "3", "--out", str(survey)])
    run_ok(["synth", "--grid", "8x6", *world, "--scans", "1", "--seed", "4", "--out", str(scans)])
    run_ok(["build-dataset", str(survey), "--folds", "3", "--k", "3", "--variant", "xy", "--out", str(dae)])
    run_ok(["train", str(dae), "--family", "forest", "--trees", "10", "--out", str(model)])
    capsys.readouterr()
    run_ok(["predict", str(scans), "--model", str(model), "--map", str(survey), "--k", "3"])
    printed = capsys.readouterr().out.splitlines()

    forest = load_model(model)
    aps = tuple(forest.metadata["context"]["ap_ids"])
    registry = ApRegistry(aps=aps, availability=(0,) * len(aps))
    holdout = build_holdout_dataset(parse_signatures(scans), parse_signatures(survey), registry, k=3, variant="xy")
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
    assert not out.exists() or not any(out.iterdir())  # run makes its output directory first


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
        ("k", "2.5"),
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
    ids=["k-float", "folds-float", "seed-huge-float", "seed-bool", "ap_count-bool", "fill-removed",
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
    for flags in (["network", "--learning-rate", "nan"], ["network", "--learning-rate", "inf"],
                  ["forest", "--trees", "0"]):
        assert main(["train", str(tmp_path / "absent.csv"), "--family", *flags,
                     "--out", str(tmp_path / "m.npz")]) == 1


@pytest.mark.parametrize(
    "flags",
    [["build-dataset", "--ap-count", "0"], ["build-dataset", "--k", "0"], ["predict", "--k", "0"],
     ["build-dataset", "--seed", "-1"]],
    ids=["build-dataset-ap-count", "build-dataset-k", "predict-k", "build-dataset-seed-negative"],
)
def test_exit_code_config_error_for_non_positive_count_flag(tmp_path, trained_models, capsys, flags):
    command, *rest = flags
    survey = str(trained_models / "survey.csv")
    if command == "predict":
        argv = ["predict", survey, "--model", str(trained_models / "linear.npz"), "--map", survey, *rest]
    else:
        argv = ["build-dataset", survey, *rest, "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "flags",
    [["--sigma", "nan"], ["--sigma", "inf"], ["--exponent", "nan"], ["--exponent", "inf"], ["--spacing", "nan"],
     ["--spacing", "inf"], ["--spacing", "1e308"], ["--spacing", "6e307"], ["--spacing", "6e8"], ["--seed", "-1"]],
    ids=["sigma-nan", "sigma-inf", "exponent-nan", "exponent-inf", "spacing-nan", "spacing-inf",
         "spacing-extent-overflow", "spacing-perimeter-overflow", "spacing-extent-beyond-coordinate-bound",
         "seed-negative"],
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
    elif edit.startswith("context-"):
        ap_ids = meta["context"]["ap_ids"]
        meta["context"].update({
            "context-ap_ids-duplicate": {"ap_ids": [ap_ids[0], *ap_ids[:-1]]},
            "context-ap_ids-integer": {"ap_ids": [0, *ap_ids[1:]]},
            "context-ap_ids-string": {"ap_ids": ",".join(ap_ids)},
            "context-variant-unknown": {"variant": "xyz"},
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
    "meta-no-family": ("knn", "error: model metadata entries missing"),
    "meta-no-spec": ("knn", "error: model metadata entries missing"),
    "meta-no-input_width": ("forest", "error: model metadata entries missing"),
    "spec-unknown-key": ("network", "error: model spec"),
    "spec-k-bool": ("knn", "error: model spec: k must be an integer"),
    "context-ap_ids-duplicate": ("forest", "error: model context ap_ids"),
    "context-ap_ids-integer": ("forest", "error: model context ap_ids"),
    "context-ap_ids-string": ("forest", "error: model context ap_ids"),
    "context-variant-unknown": ("forest", "error: model context variant"),
    "truncated": ("forest", "error: not a model file"),
    "text": ("linear", "error: not a model file"),
}


@pytest.mark.parametrize("edit", list(_CORRUPT_ARCHIVES))
def test_predict_exit_code_data_error_for_corrupt_forest_archive(tmp_path, trained_models, edit):
    family, prefix = _CORRUPT_ARCHIVES[edit]
    model = tmp_path / "model.npz"
    if edit == "truncated":
        model.write_bytes((trained_models / f"{family}.npz").read_bytes()[:200])
    elif edit == "text":
        model.write_text("point_id,x,y\n")
    else:
        with np.load(trained_models / f"{family}.npz") as data:
            arrays = {name: data[name] for name in data.files}
        _corrupt(arrays, edit)
        np.savez_compressed(model, **arrays)
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
        {"family": "network", "learning_rate": 10**400},
        {"family": "forest", "max_depth": 3},  # not a ModelSpec field
        {"family": "linear", "label": 5},
        {"family": "linear", "label": True},
        {"family": "linear", "label": ""},
        {"family": "linear", "spec": {"family": "knn"}, "label": "X"},  # one entry form: the keys are the spec
    ],
    ids=["unknown-key", "layers-text", "layers-digits", "k-text", "not-an-object", "k-bool", "trees-float",
         "layers-float", "learning_rate-huge-int", "forest-max_depth", "label-int", "label-bool", "label-empty",
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
    run_ok(["train", "dae.csv", "--family", "network", "--layers", "4,3", "--epochs", "2",
            "--learning-rate", "0.01", "--batch-size", "8", "--seed", "6", "--out", "nn.model"])
    run_ok(["train", "dae.csv", "--family", "knn", "--neighbors", "3", "--out", "knn.model"])
    run_ok(["evaluate", "--model", "knn.model", "--data", "dae.csv", "--out", "ev"])
    config = {"folds": 3, "models": [{"family": "linear", "label": "LR-xy", "variant": "xy"}]}
    Path("cfg.json").write_text(json.dumps(config))
    run_ok(["run", "survey.csv", "--config", "cfg.json", "--out", "run", "--k", "3", "--seed", "2"])
    stamps = {
        name: Path(name).read_text().splitlines()[0]
        for name in ("survey.csv", "ingested.csv", "dae.csv", "ev/report.csv", "ev/pairs.csv", "ev/ecdf.csv",
                     "run/report.csv")
    }
    evaluate = "# config_hash=22764139131a seed=0"
    assert stamps == {
        "survey.csv": "# config_hash=2b2d2ee46eb2 seed=5",
        "ingested.csv": "# config_hash=3463ca24869b seed=0",
        "dae.csv": "# config_hash=5da8d8f309db seed=0",
        "ev/report.csv": evaluate,
        "ev/pairs.csv": evaluate,
        "ev/ecdf.csv": evaluate,
        "run/report.csv": "# config_hash=ea8fde93f4e5 seed=2",
    }
    specs = []
    for name in ("nn.model", "knn.model"):
        with np.load(name) as data:
            specs.append(json.loads(str(data["meta_json"]))["spec"])
    defaults = {"batch_size": 32, "epochs": 200, "k": 4, "layers": [128, 128, 128], "learning_rate": 0.001,
                "seed": 0, "trees": 100}
    assert specs == [
        {**defaults, "family": "network", "batch_size": 8, "epochs": 2, "layers": [4, 3], "learning_rate": 0.01,
         "seed": 6},
        {**defaults, "family": "knn", "k": 3},
    ]


# one changed value per argument; None marks a flag that takes no value
_ARGUMENT_CHANGES = {
    "synth": {"--grid": "3x4", "--spacing": "2.5", "--aps": "7", "--scans": "2", "--sigma": "1.5",
              "--exponent": "3", "--tx-power": "-41", "--floor": "-90", "--seed": "6"},
    "build-dataset": {"input": "copy.csv", "--format": "zenodo", "--ap-count": "5", "--k": "3",
                      "--folds": "4", "--grouping": "by_point", "--variant": "xy", "--seed": "1"},
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
