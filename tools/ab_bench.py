"""Compare two ``src/`` trees on one benchmark workload in alternating runs.

Usage::

    python tools/ab_bench.py --parent-src P --change-src C --workload W --pairs N

It copies ``perfbench/`` and ``BENCHMARK.json`` once into
``.bench_build/ab/``. Then it makes N pairs of ``perfbench/run.py
--workload W --seed 1 --trace 0`` runs there, copying in the side's
``src/`` before each run. The parent runs first in even pairs and the change
in odd ones, so a slow drift of the host falls on both sides alike. Both
sides run from the same directory, because two checkouts in two directories
can differ in wall time and memory for no reason in the code.

For each end-to-end metric of ``BENCHMARK.json`` it prints both medians,
the parent's interquartile range, how many pairs the change won, and
a verdict. The verdict is ``WORSE`` when the change's median is worse than
the parent's by more than the metric's bound, a share of the parent's median.
Otherwise it is ``gain`` when the change wins at least 9 in 10 of the pairs
and its median is better than the parent's by more than the parent's IQR:
the rule a claimed speed-up must meet. Otherwise it is ``unresolved`` when
the parent's IQR is wider than the bound's share and some change run does
not beat every parent run: runs that spread wider than the bound cannot
tell a change from noise. Otherwise it is ``ok``. It lists every run that
was not correct, had failed operations or wrote outputs whose digests
differ from the parent's first run. The exit code is 1 if a metric is worse
or a run is listed, 2 if a run did not report, and 0 otherwise, ``gain`` and
``unresolved`` included.

Each session starts by emptying ``.bench_build/ab/.perfbench_results/``, so
the result files perfbench writes there are this session's alone. After
each run it rewrites ``.bench_build/ab/session-W.json``: every run so far,
in run order, with its pair, side, metrics and output digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "ab"
SIDES = ("parent", "change")


def run_order(pairs: int) -> list[tuple[int, str]]:
    """``(pair, side)`` in run order: the parent first in even pairs, the change first in odd ones."""
    return [(i, side) for i in range(pairs) for side in (SIDES if i % 2 == 0 else SIDES[::-1])]


def summarize(results: dict[str, list[dict]], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines for the runs of each side, in pair order, and whether the change passes."""
    passed = True
    lines = [f"{'metric':<16}{'parent median':>15}{'change median':>15}{'parent IQR':>12}{'change wins':>13}  verdict"]
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent, change = ([run["metrics"][name]["value"] for run in results[side]] for side in SIDES)
        q1, _, q3 = statistics.quantiles(parent, n=4)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        allowed = metric["bound"] * abs(parent_median)
        worse = sign * (change_median - parent_median) > allowed
        gain = 10 * wins >= 9 * len(parent) and sign * (parent_median - change_median) > q3 - q1
        dominates = max(sign * c for c in change) < min(sign * p for p in parent)
        verdict = ("WORSE" if worse else "gain" if gain else
                   "unresolved" if q3 - q1 > allowed and not dominates else "ok")
        passed &= not worse
        lines.append(f"{name:<16}{parent_median:>15.4g}{change_median:>15.4g}{q3 - q1:>12.3g}"
                     f"{f'{wins}/{len(parent)}':>13}  {verdict}")
    digests = results["parent"][0]["digests"]
    for side in SIDES:
        for i, run in enumerate(results[side]):
            if not run["correct"] or run["failed"] or run["digests"] != digests:
                passed = False
                lines.append(f"pair {i + 1} {side}: correct={run['correct']}, {run['failed']} of "
                             f"{run['attempted']} operations failed, output digests {run['digests']}")
    return lines, passed


def run_side(src: Path, workload: str, seconds: float) -> dict:
    """One benchmark run with ``src`` in the build directory: the last line perfbench printed, plus its digests."""
    shutil.rmtree(BUILD / "src", ignore_errors=True)
    shutil.copytree(src, BUILD / "src", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=BUILD, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"error: perfbench/run.py exited {proc.returncode} with {src} (see its stderr above)", file=sys.stderr)
        raise SystemExit(2)
    digests = [line.split()[-1] for line in lines if line.strip().startswith("output sha256 ")]
    return {**json.loads(lines[-1]), "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, required=True, help="src/ directory of the parent")
    parser.add_argument("--change-src", type=Path, required=True, help="src/ directory of the change")
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    parser.add_argument("--pairs", type=int, required=True, help="number of parent/change pairs, at least 2")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    srcs = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so that the parent's runs have quartiles")
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    for side, src in srcs.items():
        if not (src / "daepos" / "__init__.py").is_file():
            parser.error(f"--{side}-src {src} holds no daepos package")

    shutil.rmtree(BUILD / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", BUILD / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", BUILD / "BENCHMARK.json")
    shutil.rmtree(BUILD / ".perfbench_results", ignore_errors=True)
    results = {side: [None] * args.pairs for side in SIDES}
    session = {"workload": args.workload, "srcs": {side: str(src) for side, src in srcs.items()}, "runs": []}
    for i, side in run_order(args.pairs):
        run = run_side(srcs[side], args.workload, benchmark["run_seconds"])
        results[side][i] = run
        session["runs"].append({"pair": i + 1, "side": side, **run})
        (BUILD / f"session-{args.workload}.json").write_text(json.dumps(session, indent=1), encoding="utf-8")
        values = " ".join(f"{name}={metric['value']:.4g}" for name, metric in run["metrics"].items())
        print(f"pair {i + 1}/{args.pairs} {side}: {values}", file=sys.stderr, flush=True)

    lines, passed = summarize(results, benchmark["end_to_end"])
    print(f"workload {args.workload}, {args.pairs} pairs")
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
