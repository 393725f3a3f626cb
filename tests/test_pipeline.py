import json

import pytest

from daepos import ConfigError
from daepos.pipeline import PipelineConfig, config_hash, default_lineup, load_config


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
    assert config_hash(base) != config_hash(minimal_config(seed=3, k=5))
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
    entries = config.active_models()
    assert entries[0].label == "RF-xy" and entries[0].spec.trees == 42
    assert entries[0].spec.seed == 5  # inherits the run seed
    assert entries[1].label == "nearest" and entries[1].variant == "plain"


def test_load_config_rejects_model_without_family(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": "a.csv", "out_dir": "o", "models": [{"trees": 5}]}))
    with pytest.raises(ConfigError):
        load_config(str(path), {})
