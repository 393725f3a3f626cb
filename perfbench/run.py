"""Benchmark of ``daepos run`` and ``daepos predict``: one workload per call.

    python3 perfbench/run.py --workload paper-lineup --seed 1 --seconds 50 --trace 0

Generates the workload's inputs from ``--seed`` (untimed), then runs the
workload for about ``--seconds``, split over fresh worker processes, and
prints every end-to-end metric with its unit, the output digests and the
machine facts.  With ``--trace 1`` it first measures the untraced wall time
for half the time, then runs one traced repetition in another fresh process
and prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs every workload in turn, each printing its own block.

The command exits 1 when any output check fails, when repetitions (the
traced one included) disagree on the output digest, or when any operation
failed; it exits 2 on bad arguments, when daepos cannot be found, or when a
worker does not finish.
A results file with all raw values goes to ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # one workload's run must end within 180 s
# Untraced repetitions are split over this many fresh worker processes, so
# one process's memory layout does not set the whole run's timings.
WORKERS = 2


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    threads = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if v in os.environ}
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": _mem_total_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": threads or f"library default (nproc={os.cpu_count()})",
        "git_commit": _git_commit(),
        "peak_rss_note": "peak_rss_mb is ru_maxrss of a fresh worker process that ran only this workload",
    }


def _mem_total_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_worker(workload: str, work_dir: Path, deadline: float, extra: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]
    proc = subprocess.run(argv, cwd=work_dir, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(10.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(reps: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics (medians over repetitions) and informational figures."""
    from metrics import tail_percentile

    e2e = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "err_mae_m": statistics.median(r["quality"]["err_mae_m"] for r in reps),
    }
    info = {"repetitions": len(reps)}
    info.update((key, value) for key, value in reps[0]["quality"].items() if key != "err_mae_m")
    predicts = [r["predict"] for r in reps if "predict" in r]
    if predicts:
        intervals = [s * 1e3 for p in predicts for s in p["intervals_s"]]
        info["predict_setup_s"] = statistics.median(p["setup_s"] for p in predicts)
        info["predict_samples"] = len(intervals)
        info["predict_p50_ms"] = statistics.median(intervals)
        tail = tail_percentile(intervals)
        if tail is not None:
            info[f"predict_p{tail[0]}_ms"] = tail[1]
    return e2e, info


def run_workload(workload, seed: int, seconds: float, trace: int) -> int:
    """Prepare, measure, check and report one workload; returns the exit code."""
    import workloads
    from metrics import END_TO_END, PER_LAYER

    deadline = time.monotonic() + DEADLINE_S
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-s{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        prep_start = time.perf_counter()
        workloads.prepare(workload, seed, work_dir)
        prep_s = time.perf_counter() - prep_start
        if trace:
            base = run_worker(workload.name, work_dir, deadline, ["--seconds", str(seconds / 2)])
            untraced_wall = statistics.median(r["wall_s"] for r in base["reps"])
            traced = run_worker(workload.name, work_dir, deadline, ["--traced", "--untraced-wall", str(untraced_wall)])
            reps = base["reps"] + traced["reps"]
        else:
            parts = [run_worker(workload.name, work_dir, deadline, ["--seconds", str(seconds / WORKERS)])
                     for _ in range(WORKERS)]
            base = {"reps": [r for part in parts for r in part["reps"]],
                    "peak_rss_mb": max(part["peak_rss_mb"] for part in parts)}
            reps = base["reps"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {workload.name}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e, info = summarize(base["reps"], base["peak_rss_mb"])
    digests = sorted({r["digest"] for r in reps})
    problems = list(dict.fromkeys(p for r in reps for p in r["problems"]))  # each once, in order
    if len(digests) > 1:
        problems.append(f"{len(digests)} different output digests across {len(reps)} repetitions")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    info["fail_frac"] = failed / attempted

    if trace:
        metrics = {name: {"value": traced["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    if any(not math.isfinite(m["value"]) for m in metrics.values()):
        problems.append("a metric is not finite")
    correct = not problems and failed == 0

    facts = machine_facts()
    print(f"workload {workload.name} seed {seed} trace {trace}: "
          f"{len(reps)} repetitions, inputs prepared in {prep_s:.3f} s")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    for name, value in info.items():
        print(f"  info {name} = {value!r}")
    for digest in digests:
        print(f"  output sha256 {digest}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")

    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    results = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": facts, "prep_s": prep_s, "metrics": metrics, "info": info, "digests": digests,
        "problems": problems, "attempted": attempted, "failed": failed,
        "repetitions": reps,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_name = f"{workload.name}-s{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    (results_dir / out_name).write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "daepos" / "__init__.py").is_file():
        print(f"error: no daepos sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r}; expected 'all' or one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in chosen)


if __name__ == "__main__":
    sys.exit(main())
