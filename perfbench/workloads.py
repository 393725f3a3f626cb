"""Workload definitions and deterministic input generation.

Every input a workload reads (survey, holdout scans, the run config and,
for the ``daepos predict`` call, its scans and model) is generated here from the workload seed with
``daepos.synth``, ``write_signatures`` and the CLI ``build-dataset`` /
``train`` commands.  Generation happens before any timing starts; the timed
code receives only files.

The sizes are scaled so that one run of the benchmark fits its time budget
while each workload keeps the layer mix it exists to exercise (see
``perfbench/NOTES.md``).
"""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPACING_M = 2.0
SHADOWING_DB = 3.0
AP_COUNT = 35

# paper-lineup: the default eight-model lineup with every forest size and
# every network epoch count divided by LINEUP_SCALE, so the forest/network
# work ratio of the paper lineup is kept at a twentieth of the cost.
LINEUP_SCALE = 20
PAPER_LINEUP = (
    ("LR", {"family": "linear"}, "plain"),
    ("LR-xy", {"family": "linear"}, "xy"),
    ("RF", {"family": "forest", "trees": 100 // LINEUP_SCALE}, "plain"),
    ("RF-xy", {"family": "forest", "trees": 300 // LINEUP_SCALE}, "xy"),
    ("kNN", {"family": "knn", "k": 4}, "plain"),
    ("kNN-xy", {"family": "knn", "k": 4}, "xy"),
    ("NN", {"family": "network", "layers": [128, 128, 128], "epochs": 200 // LINEUP_SCALE}, "plain"),
    ("NN-xy", {"family": "network", "layers": [256, 512, 256], "epochs": 200 // LINEUP_SCALE}, "xy"),
)
LABEL_LINEUP = (
    ("LR", {"family": "linear"}, "plain"),
    ("LR-xy", {"family": "linear"}, "xy"),
    ("kNN", {"family": "knn", "k": 4}, "plain"),
    ("kNN-xy", {"family": "knn", "k": 4}, "xy"),
)
# The predict call's model: an RF-xy forest of the default RF size.
SERVE_TREES = 100


@dataclass(frozen=True)
class Survey:
    nx: int
    ny: int
    scans_per_point: int
    n_aps: int


@dataclass(frozen=True)
class Workload:
    name: str
    survey: Survey
    lineup: tuple
    checked_label: str  # the model whose quality the run reports
    holdout_points: int = 0  # off-grid points, three draws each, for the RF-xy transfer row
    serve_scans: int = 0  # off-grid single-draw scans for a `daepos predict` call after each run


PAPER_SURVEY = Survey(nx=13, ny=9, scans_per_point=3, n_aps=48)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-lineup", PAPER_SURVEY, PAPER_LINEUP, "RF-xy", holdout_points=36, serve_scans=100),
        Workload("label-large", Survey(nx=40, ny=20, scans_per_point=3, n_aps=64), LABEL_LINEUP, "kNN-xy"),
    )
}

HOLDOUT_DRAWS = 3
SURVEY_FILE = "survey.csv"
HOLDOUT_FILE = "holdout.csv"
SCANS_FILE = "scans.csv"
CONFIG_FILE = "config.json"
MODEL_FILE = "model.npz"
DATASET_FILE = "dataset_xy.csv"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def edge_world(seed: int, survey: Survey):
    """APs at seeded positions along the y=-1 and x=-1 edges of the grid.

    Coverage falls off across the area, so positioning error varies with
    location and the error models have something to learn.
    """
    from daepos import Position2D, SynthWorld

    rng = _rng(seed, 1)
    width = (survey.nx - 1) * SPACING_M
    height = (survey.ny - 1) * SPACING_M
    aps = []
    for i in range(survey.n_aps):
        if i % 2 == 0:
            aps.append(Position2D(float(rng.uniform(-1.0, width + 1.0)), -1.0))
        else:
            aps.append(Position2D(-1.0, float(rng.uniform(-1.0, height + 1.0))))
    return SynthWorld(ap_positions=tuple(aps), shadowing_sigma=SHADOWING_DB, seed=seed)


def off_grid_scans(world, survey: Survey, n_points: int, draws: int, seed: int, prefix: str):
    """Scans at uniformly drawn positions inside the surveyed rectangle."""
    from daepos import Position2D, sample_signature

    rng = _rng(seed, 2 if prefix == "h" else 3)
    width = (survey.nx - 1) * SPACING_M
    height = (survey.ny - 1) * SPACING_M
    scans = []
    for i in range(n_points):
        pos = Position2D(float(rng.uniform(0.0, width)), float(rng.uniform(0.0, height)))
        for draw in range(draws):
            scans.append(sample_signature(world, pos, f"{prefix}{i:04d}", draw))
    return scans


def _config(workload: Workload, seed: int) -> dict:
    config = {
        "input": SURVEY_FILE,
        "out_dir": "out",
        "ap_count": AP_COUNT,
        "folds": 5,
        "seed": seed,
        "models": [{"label": label, "variant": variant, **params} for label, params, variant in workload.lineup],
    }
    if workload.holdout_points:
        config["holdout_input"] = HOLDOUT_FILE
        config["holdout_models"] = ["RF-xy"]
    return config


def prepare(workload: Workload, seed: int, work_dir: Path) -> None:
    """Write every input of ``workload`` for ``seed`` into ``work_dir``.

    The files are referenced by relative names, so the outputs (whose
    provenance lines hash the config, input paths included) do not depend
    on where the work directory is.
    """
    from daepos import GridSpec, generate_grid_dataset, write_signatures
    from daepos.cli import main as cli_main

    world = edge_world(seed, workload.survey)
    grid = GridSpec(nx=workload.survey.nx, ny=workload.survey.ny, spacing=SPACING_M)
    survey = generate_grid_dataset(world, grid, scans_per_point=workload.survey.scans_per_point)
    write_signatures(survey, work_dir / SURVEY_FILE)

    if workload.holdout_points:
        holdout = off_grid_scans(world, workload.survey, workload.holdout_points, HOLDOUT_DRAWS, seed, "h")
        write_signatures(holdout, work_dir / HOLDOUT_FILE)
    (work_dir / CONFIG_FILE).write_text(json.dumps(_config(workload, seed), indent=1), encoding="utf-8")
    if not workload.serve_scans:
        return

    scans = off_grid_scans(world, workload.survey, workload.serve_scans, 1, seed, "q")
    write_signatures(scans, work_dir / SCANS_FILE)
    steps = (
        ["build-dataset", str(work_dir / SURVEY_FILE), "--ap-count", str(AP_COUNT), "--variant", "xy",
         "--seed", str(seed), "--out", str(work_dir / DATASET_FILE)],
        ["train", str(work_dir / DATASET_FILE), "--family", "forest", "--trees", str(SERVE_TREES),
         "--seed", "0", "--out", str(work_dir / MODEL_FILE)],
    )
    for argv in steps:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"preparing {workload.name}: daepos {argv[0]} exited with {code}")


def predict_argv() -> list[str]:
    """The ``daepos predict`` call of a workload (run in the work dir)."""
    return ["predict", SCANS_FILE, "--model", MODEL_FILE, "--map", SURVEY_FILE]
