"""Run one fixed daepos CLI sequence and print the sha256 of everything it writes.

Usage::

    PYTHONPATH=src python tools/cli_digests.py OUT_DIR

The sequence uses whichever ``daepos`` is importable, so pointing
``PYTHONPATH`` at two checkouts' ``src/`` and diffing the two listings shows
whether a change alters any output byte.  It runs, inside OUT_DIR (which
must be empty or absent): ``synth`` of a survey and a holdout survey;
``ingest`` of the canonical survey and of a zenodo-layout file; ``run`` with
``--holdout-input``, whose holdout rows put a linear fit, made in-process,
between a forest and a network fit, which go to the worker pool on two or
more cores; ``build-dataset`` with both groupings; ``train`` of all four
families on both datasets; ``evaluate`` (cross-fit, and holdout on the
model's own dataset, so each loaded model predicts a whole file in one
batch) and ``predict`` with every model.  Then it makes one failing call
per error exit code (1, 2 and 3), and an ``ingest`` that fails on an
out-of-range reading.
Every path handed to the CLI is relative to OUT_DIR, so the provenance
stamps do not depend on where OUT_DIR lives.

It prints one ``sha256  relative/path`` line per file, sorted by path; the
stdout of each ``predict`` call is captured to ``predict/<model>.txt``, and
the exit code and stderr of each failing call to ``errors/<name>.txt``.
Each ``.npz`` archive's line is followed by one ``sha256  path:entry`` line
per archive entry, so a listing shows which arrays of a model file differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import zipfile
from pathlib import Path

from daepos.cli import main as daepos_main

# A [160, 96] network holds about 21.6k parameters, more than one Adam chunk
# (network.ADAM_CHUNK), so its fits cross a chunk boundary.
FAMILY_FLAGS = {
    "linear": [],
    "knn": ["--neighbors", "3"],
    "forest": ["--trees", "5"],
    "network": ["--layers", "160,96", "--epochs", "3"],
}

RUN_CONFIG = {
    "folds": 3,
    "models": [
        {"family": "linear"},
        {"family": "knn", "k": 3, "variant": "xy"},
        {"family": "forest", "trees": 5, "variant": "xy"},
        {"family": "network", "layers": [160, 96], "epochs": 3},
    ],
    "holdout_models": ["RF-xy", "LR", "NN"],
}

# A wide file with leading comment lines, a `label` id column, mixed-case
# coordinate names, padded cells, an empty, an unparseable and `nan` / `inf`
# cells, and the 100 / 0 / -200 missed-detection sentinels.
ZENODO_TEXT = """# exported survey
#  columns: label, position, APs
label,POS_X,POS_Y,aa:01,bb:02,cc:03
q1,0.5,1.5,-60,100,-72.5
q2, 2.5 ,-1.0,-70, -50 ,0
q3,-1.0,3.25,,-81,-200
q4,1.0,1.0,n/a,nan,-64
q5,2.0,0.5,inf,-77,-inf
"""

# A canonical survey whose second data row holds a -130 dBm reading.
OUT_OF_RANGE_TEXT = """point_id,x,y,a,b
p1,0.0,0.0,-50.0,-60.0
p2,1.0,0.0,-130.0,-61.5
"""

# One call per error exit code, each failing in a way the sequence above sets up.
FAILING_CALLS = {
    "rssi": ("ingest", "out_of_range.csv", "--out", "errors/rssi.csv"),
    "folds": ("build-dataset", "survey.csv", "--folds", "1", "--out", "errors/folds.csv"),
    "absent": ("train", "absent.csv", "--family", "linear", "--out", "errors/absent.npz"),
    "width": ("evaluate", "--model", "models/linear_xy.npz", "--data", "dae_xy.csv", "--holdout", "dae_plain.csv",
              "--out", "errors/width"),
}


def _daepos(*argv: str) -> str:
    """Run one CLI command in-process and return its stdout; a non-zero exit aborts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = daepos_main(list(argv))
    if code:
        raise SystemExit(f"daepos {' '.join(argv)} exited {code}")
    return out.getvalue()


def run_sequence() -> None:
    """Write every output of the fixed sequence into the current directory."""
    for sub in ("ingest", "models", "predict"):
        Path(sub).mkdir()
    _daepos("synth", "--grid", "4x3", "--aps", "8", "--scans", "3", "--seed", "11", "--out", "survey.csv")
    _daepos("synth", "--grid", "3x3", "--aps", "8", "--scans", "2", "--seed", "12", "--out", "holdout.csv")
    Path("zenodo.csv").write_text(ZENODO_TEXT)
    _daepos("ingest", "survey.csv", "--out", "ingest/canonical.csv")
    _daepos("ingest", "zenodo.csv", "--format", "zenodo", "--out", "ingest/zenodo.csv")

    Path("config.json").write_text(json.dumps(RUN_CONFIG, indent=1))
    _daepos("run", "survey.csv", "--config", "config.json", "--holdout-input", "holdout.csv", "--out", "run")

    datasets = {"plain": "by_signature", "xy": "by_point"}
    for variant, grouping in datasets.items():
        _daepos("build-dataset", "survey.csv", "--folds", "3", "--grouping", grouping,
                "--variant", variant, "--out", f"dae_{variant}.csv")
    for variant in datasets:
        for family, flags in FAMILY_FLAGS.items():
            name = f"{family}_{variant}"
            _daepos("train", f"dae_{variant}.csv", "--family", family, *flags, "--out", f"models/{name}.npz")
            _daepos("evaluate", "--model", f"models/{name}.npz", "--data", f"dae_{variant}.csv",
                    "--out", f"evaluate/{name}")
            _daepos("evaluate", "--model", f"models/{name}.npz", "--data", f"dae_{variant}.csv",
                    "--holdout", f"dae_{variant}.csv", "--out", f"evaluate_holdout/{name}")
            stdout = _daepos("predict", "holdout.csv", "--model", f"models/{name}.npz", "--map", "survey.csv")
            Path(f"predict/{name}.txt").write_text(stdout)

    Path("errors").mkdir()
    Path("out_of_range.csv").write_text(OUT_OF_RANGE_TEXT)
    for name, argv in FAILING_CALLS.items():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = daepos_main(list(argv))
        Path(f"errors/{name}.txt").write_text(f"exit {code}\n{err.getvalue()}")


def digests(root: Path) -> list[str]:
    """``sha256  relative/path`` for every file under ``root``, sorted by path, and ``path:entry`` for npz entries."""
    lines = []
    for p in sorted(p for p in root.rglob("*") if p.is_file()):
        name = p.relative_to(root).as_posix()
        lines.append(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {name}")
        if p.suffix == ".npz":
            with zipfile.ZipFile(p) as archive:
                entries = sorted(archive.namelist())
                lines += [f"{hashlib.sha256(archive.read(e)).hexdigest()}  {name}:{e}" for e in entries]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to write into; must be empty or absent")
    args = parser.parse_args(argv)
    out = args.out_dir.resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        parser.error(f"{out} is not empty")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        run_sequence()
    finally:
        os.chdir(cwd)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
