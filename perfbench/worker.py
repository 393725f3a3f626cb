"""Timed repetitions of one workload, in a fresh process.

Run by ``run.py`` with the work directory (which holds the generated
inputs) as the current directory and ``src`` on ``PYTHONPATH``.  Prints one
JSON object: per-repetition timings, output digests and checks, and this
process's peak RSS.  With ``--traced`` it runs a single repetition with the
span wrappers installed and adds the per-layer metrics.

Peak RSS is ``ru_maxrss`` of this process, which does nothing but load
daepos, run the workload and check its outputs, so it is the workload's own
footprint.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer, layer_metrics

# Repetitions per worker, however short --seconds is: a median needs two.
MIN_REPS = 2


class LineSink:
    """Stands in for stdout and timestamps every line written to it."""

    def __init__(self):
        self.times: list[float] = []
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.times.extend([time.perf_counter()] * text.count("\n"))
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.chunks)


def dir_digest(root: Path) -> str:
    """sha256 over the relative name and bytes of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return [row for row in csv.reader(line for line in f if not line.startswith("#"))]


def _slug(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label.lower()).strip("_")


def check_run_outputs(workload, out: Path, n_scans: int) -> dict:
    """Check a run's report against its own pairs files and count failed rows.

    A lineup model fails when its report row is missing, has a non-finite
    value, or disagrees with the MAE recomputed from its pairs file.
    """
    problems = []
    expected = [label for label, _, _ in workload.lineup]
    if workload.holdout_points:
        expected.append("user")
    rows = {}
    metrics_path = out / "metrics.csv"
    if metrics_path.exists():
        table = _read_csv(metrics_path)
        rows = {row[0]: row for row in table[1:]}
    failed = 0
    for label in expected:
        row = rows.get(label)
        try:
            mae, mse = float(row[3]), float(row[4])
            pearson = float(row[5]) if row[5] else 0.0
            values_finite = all(math.isfinite(v) for v in (mae, mse, pearson))
        except (TypeError, ValueError, IndexError):
            values_finite = False
        if not values_finite:
            problems.append(f"{label}: report row missing or not finite")
            failed += 1
            continue
        pairs_name = f"user_{_slug(workload.checked_label)}" if label == "user" else _slug(label)
        pairs = np.array([[float(a), float(b)] for a, b in _read_csv(out / f"{pairs_name}_pairs.csv")[1:]])
        want_pairs = workload.holdout_points * workloads.HOLDOUT_DRAWS if label == "user" else n_scans
        if len(pairs) != want_pairs or not np.all(pairs[:, 0] >= 0):
            problems.append(f"{label}: {len(pairs)} pairs, expected {want_pairs} with non-negative errors")
            failed += 1
        elif not math.isclose(float(np.mean(np.abs(pairs[:, 1] - pairs[:, 0]))), mae, rel_tol=1e-9):
            problems.append(f"{label}: report MAE {mae} disagrees with its pairs file")
            failed += 1
    for variant in {variant for _, _, variant in workload.lineup}:
        n_rows = len(_read_csv(out / f"dae_{variant}.csv")) - 1
        if n_rows != n_scans:
            problems.append(f"dae_{variant}.csv has {n_rows} records for {n_scans} scans")
    checked = rows.get(workload.checked_label)
    quality = {
        "err_mae_m": float(checked[3]) if checked else math.nan,
        "cf_pearson": float(checked[5]) if checked and checked[5] else math.nan,
    }
    if workload.holdout_points:
        quality["holdout_mae_m"] = float(rows["user"][3]) if "user" in rows else math.nan
    return {"attempted": len(expected), "failed": failed, "problems": problems, "quality": quality}


def serve_reference() -> np.ndarray:
    """Expected (x, y, radius) per scan of the ``predict`` call.

    Positions come from a kNN search written here in numpy, independent of
    ``daepos.localize``; radii come from the model's ``predict`` on the
    features the CLI documents (imputed RSSI plus the estimate).
    """
    from daepos import load_model, parse_signatures

    model = load_model(workloads.MODEL_FILE)
    aps = model.metadata["context"]["ap_ids"]
    fill = -99.0

    def matrix(signatures):
        return np.array([[sig.readings.get(ap, fill) for ap in aps] for sig in signatures], dtype=float)

    survey = parse_signatures(workloads.SURVEY_FILE)
    map_x, map_ref = matrix(survey), np.array([[s.reference.x, s.reference.y] for s in survey])
    expected = []
    for vector in matrix(parse_signatures(workloads.SCANS_FILE)):
        dists = np.sqrt(np.sum((map_x - vector) ** 2, axis=1))
        est = map_ref[np.argsort(dists, kind="stable")[:4]].mean(axis=0)
        radius = model.predict(np.concatenate([vector, est]))
        expected.append((est[0], est[1], radius))
    return np.array(expected)


def check_serve_output(text: str, reference: np.ndarray) -> dict:
    """A scan fails when its answer line is missing, malformed, not finite,
    or further than the printed precision from the reference answer."""
    lines = text.splitlines()
    failed = 0
    for i, expected in enumerate(reference):
        try:
            values = np.array([float(v) for v in lines[i].split(",")])
        except (IndexError, ValueError):
            failed += 1
            continue
        if (len(values) != 3 or not np.all(np.isfinite(values)) or values[2] < 0
                or np.max(np.abs(values - expected)) > 0.0015):
            failed += 1
    problems = [f"{failed} of {len(reference)} scans have no correct answer line"] if failed else []
    if len(lines) != len(reference):
        problems.append(f"{len(lines)} output lines for {len(reference)} scans")
    return {"attempted": len(reference), "failed": failed, "problems": problems}


def serve(reference: np.ndarray) -> tuple[dict, list[float]]:
    """One ``daepos predict`` call with stdout caught by a ``LineSink``."""
    from daepos.cli import main as cli_main

    sink = LineSink()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli_main(workloads.predict_argv())
    end = time.perf_counter()
    result = {
        "setup_s": (sink.times[0] if sink.times else end) - start,
        "intervals_s": np.diff(sink.times).tolist(),
        "text": sink.text(),
    }
    result.update(check_serve_output(result["text"], reference))
    if code != 0:
        result["problems"].append(f"daepos predict exited with {code}")
        result["failed"] = result["attempted"]
    return result, sink.times


def run_rep(workload, rep_name: str, reference) -> tuple[dict, list[float]]:
    """One ``run_pipeline`` call, then the workload's ``daepos predict`` call if it has one.

    ``wall_s`` and ``setup_s`` time the pipeline alone; its set-up ends at
    the ``registry:`` log line.  The digest covers the pipeline's output
    files and the predict output lines.
    """
    from daepos import load_config, run_pipeline

    config = load_config(workloads.CONFIG_FILE, {"out_dir": rep_name})
    log_times: dict[str, float] = {}

    def log(message: str) -> None:
        log_times.setdefault(message.split(":", 1)[0], time.perf_counter())

    start = time.perf_counter()
    run_pipeline(config, log=log)
    end = time.perf_counter()
    out = Path(rep_name)
    n_scans = workload.survey.nx * workload.survey.ny * workload.survey.scans_per_point
    result = {"wall_s": end - start, "setup_s": log_times["registry"] - start}
    result.update(check_run_outputs(workload, out, n_scans))
    digest = hashlib.sha256(dir_digest(out).encode())
    shutil.rmtree(out)
    line_times: list[float] = []
    if reference is not None:
        predict, line_times = serve(reference)
        digest.update(predict.pop("text").encode())
        for key in ("attempted", "failed", "problems"):
            result[key] += predict.pop(key)
        result["predict"] = predict
    result["digest"] = digest.hexdigest()
    return result, line_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=0.0, help="measure for about this long")
    parser.add_argument("--traced", action="store_true", help="one repetition with spans recorded")
    parser.add_argument("--untraced-wall", type=float, help="median untraced wall_s, for the trace overhead")
    args = parser.parse_args(argv)
    if args.traced and not args.untraced_wall:
        parser.error("--traced needs --untraced-wall")
    workload = workloads.WORKLOADS[args.workload]

    reference = serve_reference() if workload.serve_scans else None
    report: dict = {}
    if args.traced:
        tracer = Tracer()
        try:
            tracer.install()
            rep, line_times = run_rep(workload, "out-traced", reference)
        finally:
            tracer.restore()
        report["layers"] = layer_metrics(tracer.spans, rep["wall_s"], args.untraced_wall, line_times)
        reps = [rep]
    else:
        reps = []
        began = time.perf_counter()
        while True:
            reps.append(run_rep(workload, f"out-{len(reps)}", reference)[0])
            elapsed = time.perf_counter() - began
            # stop before a next repetition of the average length would overrun
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
    report["reps"] = reps
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
