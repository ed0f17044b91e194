#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarized into one file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ensemble:10 --workload case-study:10 \\
        --workload design-sweep:3 --out BENCH.json

Each pair runs the unchanged ``python3 bench/run.py --workload W --seed S``
once in each checkout, one after the other, for the run length that
BENCHMARK.json sets (``run_seconds``); the checkout that goes first
alternates from pair to pair, so that a drift of the machine falls on both
sides alike.  The last line each run prints is its result.
Per workload and end-to-end metric the output file holds the parent's and
the change's median and quartiles over the pairs, the number of pairs in
which the change was better (in the metric's direction from the change's
BENCHMARK.json), and the runs' failure counts; it also names both commits
and the numpy version.  Standard library only; the benchmark itself needs
numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def last_result(stdout: str) -> dict:
    """The result object a run prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    """Median and quartiles; one value is all three."""
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: dict, better: dict) -> dict:
    """Per workload, the pair count, the failures and, per metric, both
    sides' medians and quartiles and the pairs the change won.

    pairs maps a workload to its (parent result, change result) pairs;
    better maps a metric to "lower" or "higher".
    """
    out = {}
    for workload, runs in pairs.items():
        names = list(runs[0][0]["metrics"])
        metrics = {}
        for name in names:
            parent = [p["metrics"][name]["value"] for p, _ in runs]
            change = [c["metrics"][name]["value"] for _, c in runs]
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            metrics[name] = {
                "unit": runs[0][0]["metrics"][name]["unit"],
                "parent": _spread(parent), "change": _spread(change),
                "change_better_pairs": sum(
                    sign * (c - p) > 0 for p, c in zip(parent, change)),
            }
        out[workload] = {
            "pairs": len(runs),
            "failed": {"parent": sum(p["failed"] for p, _ in runs),
                       "change": sum(c["failed"] for _, c in runs)},
            "correct": all(p["correct"] and c["correct"] for p, c in runs),
            "metrics": metrics,
        }
    return out


def _commit(path: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=path,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    dirty = subprocess.run(["git", "status", "--porcelain", "--",
                            "src", "bench", "BENCHMARK.json"], cwd=path,
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("-dirty" if dirty else "")


def _run(path: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=path, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{path}: bench/run.py --workload {workload} "
                           f"exited {proc.returncode}:\n{proc.stderr}")
    return last_result(proc.stdout)


def _workload_arg(text: str) -> tuple[str, int]:
    name, _, count = text.partition(":")
    return name, int(count or 10)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--workload", type=_workload_arg, action="append",
                    required=True, metavar="NAME[:PAIRS]",
                    help="a workload and its pair count (default 10); "
                         "repeat for several")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    manifest = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    report = {
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"(run_seconds {manifest['run_seconds']:g})",
        "order": "alternating: the parent runs first in odd pairs",
        "parent_commit": _commit(args.parent),
        "change_commit": _commit(args.change),
        "python": sys.version.split()[0],
        "numpy": subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True).stdout.strip(),
    }
    pairs = {}
    for workload, count in args.workload:
        runs = pairs[workload] = []
        for i in range(count):
            order = (args.parent, args.change)[::1 if i % 2 == 0 else -1]
            got = {side: _run(side, workload, args.seed)
                   for side in order}
            runs.append((got[args.parent], got[args.change]))
            print(f"{workload} pair {i + 1}/{count}: op_s_p50 " + " -> ".join(
                f"{got[side]['metrics']['op_s_p50']['value']:.4g} s"
                for side in (args.parent, args.change)), file=sys.stderr)
            # rewritten after every pair, so that a stopped series keeps
            # the pairs it finished
            report["workloads"] = summarize(pairs, better)
            args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
