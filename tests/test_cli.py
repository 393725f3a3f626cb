import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import daepos
from daepos import parse_signatures, read_dae_dataset
from daepos.cli import main


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


def test_exit_code_config_error_for_bad_folds(tmp_path, survey_csv):
    assert main(["build-dataset", str(survey_csv), "--folds", "1", "--out", str(tmp_path / "x.csv")]) == 1


def test_exit_code_config_error_for_bad_flag_value(tmp_path, survey_csv):
    assert main(["build-dataset", str(survey_csv), "--grouping", "by_magic",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["nonsense-command"]) == 1


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


def test_negative_fill_flag_value(tmp_path, survey_csv):
    out = tmp_path / "dae.csv"
    run_ok(["build-dataset", str(survey_csv), "--folds", "3", "--fill", "-90", "--out", str(out)])
    dataset = read_dae_dataset(out)
    assert (dataset.features() >= -90.0 - 1e-9).any()


@pytest.mark.parametrize("fill", ["nan", "inf", "-inf"])
def test_exit_code_config_error_for_non_finite_fill(tmp_path, survey_csv, fill):
    assert main(["build-dataset", str(survey_csv), "--fill", fill, "--out", str(tmp_path / "x.csv")]) == 1
    assert not (tmp_path / "x.csv").exists()
    assert main(["predict", str(survey_csv), "--model", str(tmp_path / "m.bin"),
                 "--map", str(survey_csv), "--fill", fill]) == 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fill": float(fill)}))
    assert main(["run", str(survey_csv), "--config", str(config), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    ("cell", "column"),  # column 2 is the first RSSI feature, -1 the delta_pos label
    [("nan", 2), ("nan", -1), ("inf", 2), ("inf", -1), ("-0.5", -1)],
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


@pytest.mark.parametrize("edit", ["left-self-loop", "feature-out-of-range", "offsets-past-end"])
def test_predict_exit_code_data_error_for_corrupt_forest_archive(tmp_path, survey_csv, edit):
    dae = tmp_path / "dae.csv"
    model = tmp_path / "rf.npz"
    run_ok(["build-dataset", str(survey_csv), "--folds", "3", "--out", str(dae)])
    run_ok(["train", str(dae), "--family", "forest", "--trees", "2", "--out", str(model)])
    with np.load(model) as data:
        arrays = {name: data[name] for name in data.files}
    assert arrays["feature"][0] >= 0  # the first root is a split node
    if edit == "left-self-loop":
        arrays["left"][0] = 0
    elif edit == "feature-out-of-range":
        arrays["feature"][0] = json.loads(str(arrays["meta_json"]))["input_width"]
    else:
        arrays["offsets"][-1] += 1
    np.savez_compressed(model, **arrays)
    # a child link that loops would make predict spin forever, so run it in a child process
    env = {**os.environ, "PYTHONPATH": str(Path(daepos.__file__).parents[1])}
    argv = ["predict", str(survey_csv), "--model", str(model), "--map", str(survey_csv)]
    result = subprocess.run(
        [sys.executable, "-m", "daepos.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: forest")
