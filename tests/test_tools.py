import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import daepos

CLI_DIGESTS = Path(__file__).parents[1] / "tools" / "cli_digests.py"

# The listing of every output of the sequence, made with OpenBLAS's Prescott kernel.  Without
# the pin the linear and network files, and the pairs, ECDF and metrics files made from them,
# change bits with the kernel OpenBLAS picks for the CPU.  To remake it after a change that
# alters an output on purpose: put the first line back, then append the output of
# OPENBLAS_CORETYPE=Prescott PYTHONPATH=src python tools/cli_digests.py OUT_DIR
LISTING = Path(__file__).with_name("cli_digests.txt")
KERNEL = "Prescott"


def _build() -> str:
    """The first line of the listing on this numpy and OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# OPENBLAS_CORETYPE={KERNEL}, numpy {np.__version__}, OpenBLAS {blas.get('version')}"


def test_cli_digests_listing_is_the_same_on_a_rerun(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(daepos.__file__).parents[1]), "OPENBLAS_CORETYPE": KERNEL}
    listings = []
    for name in ("first", "second"):
        result = subprocess.run(
            [sys.executable, str(CLI_DIGESTS), str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        listings.append(result.stdout)
    assert listings[0] == listings[1]
    paths = [line.split("  ", 1)[1] for line in listings[0].splitlines()]
    assert paths == sorted(paths)
    for family in ("linear", "knn", "forest", "network"):
        assert f"predict/{family}_xy.txt" in paths and f"models/{family}_plain.npz" in paths
        assert f"evaluate_holdout/{family}_plain/pairs.csv" in paths
    assert {"ingest/zenodo.csv", "run/report.csv", "run/user_rf_xy_pairs.csv", "run/user_nn_pairs.csv"} <= set(paths)
    assert {"errors/folds.txt", "errors/absent.txt", "errors/width.txt"} <= set(paths)
    # every model archive entry has its own digest, right after the archive's line
    archive = paths.index("models/forest_xy.npz")
    entries = ["feature", "left", "meta_json", "offsets", "right", "threshold", "value"]
    assert paths[archive + 1 : archive + 8] == [f"models/forest_xy.npz:{e}.npy" for e in entries]
    assert all(f"models/{family}_plain.npz:meta_json.npy" in paths for family in ("linear", "knn", "network"))
    recorded, *expected = LISTING.read_text(encoding="utf-8").splitlines()
    lines = listings[0].splitlines()
    changed = sorted({line.split("  ", 1)[1] for line in set(lines) ^ set(expected)})
    assert lines == expected, f"outputs differ from {LISTING.name} ({recorded[2:]}) on {_build()[2:]}: {changed}"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(wall_s: float, correct: bool = True, failed: int = 0) -> dict:
    """The last line perfbench/run.py prints, with wall_s set and the other metrics fixed."""
    values = {"setup_s": 0.5, "wall_s": wall_s, "peak_rss_mb": 60.0, "err_mae_m": 0.7}
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    return {"correct": correct, "attempted": 40, "failed": failed, "metrics": metrics, "digests": ["7c98"]}


def _src_trees(tmp_path, sides) -> dict:
    """An empty daepos package under ``tmp_path/<side>/src`` for each side."""
    srcs = {}
    for side in sides:
        srcs[side] = tmp_path / side / "src"
        (srcs[side] / "daepos").mkdir(parents=True)
        (srcs[side] / "daepos" / "__init__.py").write_text("")
    return srcs


def test_ab_bench_alternates_which_side_runs_first(tmp_path, monkeypatch):
    ab_bench = _load_tool("ab_bench")
    assert ab_bench.run_order(3) == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change")
    ]
    srcs = _src_trees(tmp_path, ab_bench.SIDES)
    monkeypatch.setattr(ab_bench, "BUILD", tmp_path / "build")
    calls = []

    def fake_run_side(src, workload, seconds):
        calls.append((src.parent.name, workload, seconds))
        return _canned_run(4.0)

    monkeypatch.setattr(ab_bench, "run_side", fake_run_side)
    argv = ["--parent-src", str(srcs["parent"]), "--change-src", str(srcs["change"]), "--workload", "label-large",
            "--pairs", "2"]
    assert ab_bench.main(argv) == 0
    seconds = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    assert calls == [(side, "label-large", seconds) for side in ("parent", "change", "change", "parent")]
    assert (tmp_path / "build" / "perfbench" / "run.py").is_file() and (tmp_path / "build" / "BENCHMARK.json").is_file()


def test_ab_bench_empties_old_results_and_writes_every_run_of_the_session(tmp_path, monkeypatch):
    ab_bench = _load_tool("ab_bench")
    srcs = _src_trees(tmp_path, ab_bench.SIDES)
    build = tmp_path / "build"
    monkeypatch.setattr(ab_bench, "BUILD", build)
    stale = build / ".perfbench_results" / "label-large-s1-trace0-old.json"
    stale.parent.mkdir(parents=True)
    stale.write_text("{}")
    walls = iter([4.0, 3.0, 3.5, 4.5])

    def fake_run_side(src, workload, seconds):
        assert not stale.exists()
        return _canned_run(next(walls))

    monkeypatch.setattr(ab_bench, "run_side", fake_run_side)
    argv = ["--parent-src", str(srcs["parent"]), "--change-src", str(srcs["change"]), "--workload", "label-large",
            "--pairs", "2"]
    assert ab_bench.main(argv) == 0
    session = json.loads((build / "session-label-large.json").read_text(encoding="utf-8"))
    assert session["workload"] == "label-large"
    assert session["srcs"] == {side: str(src.resolve()) for side, src in srcs.items()}
    runs = [(run["pair"], run["side"], run["metrics"]["wall_s"]["value"], run["digests"]) for run in session["runs"]]
    assert runs == [(1, "parent", 4.0, ["7c98"]), (1, "change", 3.0, ["7c98"]),
                    (2, "change", 3.5, ["7c98"]), (2, "parent", 4.5, ["7c98"])]


def test_ab_bench_summary_flags_a_metric_worse_than_its_bound_and_every_bad_run():
    ab_bench = _load_tool("ab_bench")
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "err_mae_m", "better": "higher", "bound": 0.1}]
    parent = [_canned_run(wall) for wall in (4.0, 4.4, 4.2, 4.6)]
    change = [_canned_run(wall) for wall in (3.9, 4.5, 4.1, 4.0)]
    lines, passed = ab_bench.summarize({"parent": parent, "change": change}, end_to_end)
    assert passed
    header, wall, mae = lines
    assert header.split()[:2] == ["metric", "parent"]
    # medians 4.3 and 4.05, quartiles 4.05 and 4.55 (exclusive method), change faster in pairs 1, 3 and 4
    assert wall.split() == ["wall_s", "4.3", "4.05", "0.5", "3/4", "ok"]
    assert mae.split() == ["err_mae_m", "0.7", "0.7", "0", "0/4", "ok"]  # a tie is not a win

    slow = [_canned_run(wall) for wall in (5.5, 5.4, 5.6, 5.3)]  # median 5.45 > 4.3 * 1.25
    slow[2] = _canned_run(5.6, correct=False)
    slow[3] = _canned_run(5.3, failed=2)
    slow[0]["digests"] = ["ce25"]
    lines, passed = ab_bench.summarize({"parent": parent, "change": slow}, end_to_end)
    assert not passed
    assert lines[1].split()[-1] == "WORSE" and lines[2].split()[-1] == "ok"
    assert lines[3:] == ["pair 1 change: correct=True, 0 of 40 operations failed, output digests ['ce25']",
                         "pair 3 change: correct=False, 0 of 40 operations failed, output digests ['7c98']",
                         "pair 4 change: correct=True, 2 of 40 operations failed, output digests ['7c98']"]

    # quartiles 4.05 and 6.3: an IQR of 2.25 is wider than 25% of the 5.1 median
    spread = [_canned_run(wall) for wall in (4.0, 6.0, 4.2, 6.4)]
    faster = [_canned_run(wall) for wall in (3.9, 5.0, 4.1, 6.0)]  # wins every pair, but 6.0 > 4.0
    lines, passed = ab_bench.summarize({"parent": spread, "change": faster}, end_to_end)
    assert passed  # unresolved leaves the exit code alone
    assert lines[1].split() == ["wall_s", "5.1", "4.55", "2.25", "4/4", "unresolved"]
    dominant = [_canned_run(wall) for wall in (3.0, 3.5, 3.2, 3.9)]  # every run beats every parent run
    lines, passed = ab_bench.summarize({"parent": spread, "change": dominant}, end_to_end)
    assert passed and lines[1].split() == ["wall_s", "5.1", "3.35", "2.25", "4/4", "ok"]


def test_ab_bench_summary_calls_a_gain_only_on_9_of_10_wins_and_a_median_gap_wider_than_the_iqr():
    ab_bench = _load_tool("ab_bench")
    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "err_mae_m", "better": "higher", "bound": 0.25}]
    parent = [_canned_run(wall) for wall in (1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95)]
    # quartiles 0.9375 and 1.0625: an IQR of 0.125; the parent's median is 1.0

    def verdicts(walls, maes=None):
        change = [_canned_run(wall) for wall in walls]
        for run, mae in zip(change, maes or []):
            run["metrics"]["err_mae_m"]["value"] = mae
        lines, passed = ab_bench.summarize({"parent": parent, "change": change}, end_to_end)
        assert passed
        return [line.split()[-2:] for line in lines[1:]]

    nine = [0.8, 0.85, 0.8, 0.85, 0.8, 0.85, 0.8, 0.85, 0.8, 1.2]  # median 0.825, slower in pair 10
    assert verdicts(nine)[0] == ["9/10", "gain"]
    eight = nine[:8] + [1.2, 1.2]  # median still 0.825, but 8/10
    assert verdicts(eight)[0] == ["8/10", "ok"]
    close = [wall - 0.1 for wall in (1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95)]  # gap 0.1 < 0.125
    assert verdicts(close)[0] == ["10/10", "ok"]
    # a metric that is better higher: err_mae_m at 0.7 for the parent, 0.9 for the change in every pair
    assert verdicts(nine, maes=[0.9] * 10) == [["9/10", "gain"], ["10/10", "gain"]]


def test_ab_bench_run_that_does_not_report_exits_2(tmp_path, monkeypatch, capsys):
    ab_bench = _load_tool("ab_bench")
    monkeypatch.setattr(ab_bench, "BUILD", tmp_path / "build")
    src = tmp_path / "src"
    (src / "daepos").mkdir(parents=True)
    monkeypatch.setattr(ab_bench.subprocess, "run",
                        lambda *args, **kwargs: subprocess.CompletedProcess(args, 3, stdout=""))
    with pytest.raises(SystemExit) as exit:
        ab_bench.run_side(src, "label-large", 50)
    assert exit.value.code == 2  # not 1, which is a WORSE verdict
    assert capsys.readouterr().err.startswith("error: perfbench/run.py exited 3 with ")
