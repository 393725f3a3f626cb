"""Fuzz tests of the one-line error contract.

Every call of the CLI either succeeds or ends in exactly one ``error:`` line
on stderr with exit code 1, 2 or 3; no exception escapes ``main``.
"""

import contextlib
import copy
import io
import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daepos.cli import main

FAMILY_FLAGS = {
    "linear": [],
    "knn": ["--neighbors", "3"],
    "forest": ["--trees", "2"],
    "network": ["--layers", "8,8", "--epochs", "2"],
}
VARIANTS = ("plain", "xy")

# Values a hand-edited or damaged metadata file may hold where another one belongs.
ODD_VALUES = [None, 2**70, math.nan, math.inf, "", [], {}, 10**400, True, False, [[0, [None]], []], -1, 0]
DELETE = object()


def _call(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small survey, its dataset of each variant, and the arrays of every family's model on each."""
    root = tmp_path_factory.mktemp("fuzz")
    survey = root / "survey.csv"
    assert _call(["synth", "--grid", "4x3", "--aps", "6", "--scans", "2", "--seed", "5", "--out", str(survey)])[0] == 0
    archives = {}
    for variant in VARIANTS:
        dae = root / f"dae_{variant}.csv"
        assert _call(["build-dataset", str(survey), "--folds", "3", "--variant", variant, "--out", str(dae)])[0] == 0
        for family, flags in FAMILY_FLAGS.items():
            model = root / f"{family}_{variant}.npz"
            assert _call(["train", str(dae), "--family", family, *flags, "--out", str(model)])[0] == 0
            with np.load(model) as data:
                archives[family, variant] = {name: data[name] for name in data.files}
    return root, archives


def _leaves(node, path=()):
    """The path of every scalar or empty container inside a parsed JSON value."""
    if isinstance(node, (dict, list)) and node:
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, (*path, key))
    elif path:
        yield path


@st.composite
def edited_metadata(draw, meta: dict) -> dict:
    """``meta`` with one to three of its leaves replaced by an odd value or deleted."""
    meta = copy.deepcopy(meta)
    for _ in range(draw(st.integers(1, 3))):
        leaves = list(_leaves(meta))
        if not leaves:
            break
        path = draw(st.sampled_from(leaves))
        value = draw(st.sampled_from([DELETE, *ODD_VALUES]))
        parent = meta
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return meta


def _check_commands(root, variant: str, arrays: dict, meta: dict) -> list[int]:
    """The exit codes of predict, evaluate and evaluate --holdout on the model with ``meta``.

    Each command must work or fail in one line.
    """
    model = root / "edited.npz"
    np.savez(model, **{**arrays, "meta_json": np.array(json.dumps(meta))})
    survey, dae, out = root / "survey.csv", root / f"dae_{variant}.csv", root / "out"
    evaluate = ["evaluate", "--model", str(model), "--data", str(dae), "--out", str(out)]
    codes = []
    for argv in (["predict", str(survey), "--model", str(model), "--map", str(survey)],
                 evaluate, [*evaluate, "--holdout", str(dae)]):
        code, err = _call(argv)
        codes.append(code)
        shutil.rmtree(out, ignore_errors=True)
        assert code in (0, 1, 2, 3), (argv[0], code, err)
        if code:
            lines = err.splitlines()
            assert [line for line in lines if line.startswith("error:")] == lines[-1:], err
            assert "Traceback" not in err
    return codes


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_model_file_with_edited_metadata_fails_in_one_line_or_works(trained, data):
    root, archives = trained
    family, variant = data.draw(st.sampled_from(sorted(archives)), label="model")
    arrays = archives[family, variant]
    meta = data.draw(edited_metadata(json.loads(str(arrays["meta_json"]))), label="metadata")
    _check_commands(root, variant, arrays, meta)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_model_file_with_a_huge_tree_or_epoch_count_fails_in_one_line(trained, data):
    # both counts size the refits of evaluate; a huge one must be refused, not started
    root, archives = trained
    family, variant = data.draw(st.sampled_from(sorted(archives)), label="model")
    arrays = archives[family, variant]
    meta = json.loads(str(arrays["meta_json"]))
    name = data.draw(st.sampled_from(["trees", "epochs"]), label="count")
    meta["spec"][name] = data.draw(st.integers(min_value=10**6 + 1, max_value=10**400), label="value")
    assert _check_commands(root, variant, arrays, meta) == [2, 2, 2]


@pytest.mark.parametrize("deleted", ["context", "ap_ids", "variant"])
def test_model_file_without_a_whole_context_fails_in_one_line(trained, deleted):
    # the leaf edits above never remove the whole context; every command needs it, so each refuses the file
    root, archives = trained
    for (family, variant), arrays in sorted(archives.items()):
        meta = json.loads(str(arrays["meta_json"]))
        if deleted == "context":
            del meta["metadata"]["context"]
        else:
            del meta["metadata"]["context"][deleted]
        assert _check_commands(root, variant, arrays, meta) == [2, 2, 2], (family, variant)
