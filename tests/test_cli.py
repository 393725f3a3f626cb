import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import daepos
from daepos import parse_signatures, read_dae_dataset
from daepos.cli import build_parser, main


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
    ],
    ids=["unknown-key", "layers-text", "layers-digits", "k-text", "not-an-object"],
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
    run_ok(["build-dataset", "survey.csv", "--folds", "3", "--variant", "xy", "--weighted", "--out", "dae.csv"])
    run_ok(["train", "dae.csv", "--family", "network", "--layers", "4,3", "--epochs", "2",
            "--learning-rate", "0.01", "--batch-size", "8", "--seed", "6", "--out", "nn.model"])
    run_ok(["train", "dae.csv", "--family", "knn", "--neighbors", "3", "--out", "knn.model"])
    run_ok(["evaluate", "--model", "knn.model", "--data", "dae.csv", "--out", "ev"])
    config = {"folds": 3, "models": [{"family": "linear", "label": "LR-xy", "variant": "xy"}]}
    Path("cfg.json").write_text(json.dumps(config))
    run_ok(["run", "survey.csv", "--config", "cfg.json", "--out", "run", "--k", "3", "--weighted", "--seed", "2"])
    stamps = {
        name: Path(name).read_text().splitlines()[0]
        for name in ("survey.csv", "ingested.csv", "dae.csv", "ev/report.csv", "ev/pairs.csv", "ev/ecdf.csv",
                     "run/report.csv")
    }
    evaluate = "# config_hash=22764139131a seed=0"
    assert stamps == {
        "survey.csv": "# config_hash=2b2d2ee46eb2 seed=5",
        "ingested.csv": "# config_hash=3463ca24869b seed=0",
        "dae.csv": "# config_hash=57fc99a2ddaa seed=0",
        "ev/report.csv": evaluate,
        "ev/pairs.csv": evaluate,
        "ev/ecdf.csv": evaluate,
        "run/report.csv": "# config_hash=7e086f1c3c17 seed=2",
    }
    specs = []
    for name in ("nn.model", "knn.model"):
        with np.load(name) as data:
            specs.append(json.loads(str(data["meta_json"]))["spec"])
    defaults = {"batch_size": 32, "bootstrap": True, "epochs": 200, "k": 4, "layers": [128, 128, 128],
                "learning_rate": 0.001, "max_depth": None, "max_features": None, "min_samples_split": 2,
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
    "build-dataset": {"input": "copy.csv", "--format": "zenodo", "--ap-count": "5", "--fill": "-95", "--k": "3",
                      "--folds": "4", "--grouping": "by_point", "--variant": "xy", "--weighted": None,
                      "--seed": "1"},
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
