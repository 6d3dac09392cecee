#!/usr/bin/env python3
"""Runs alternating parent/change pairs of one perfbench workload.

Usage, from anywhere:

    python3 scripts/perf_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD \\
        [--pairs 10] [--seconds 30] [--seed 1]

Each tree is a checkout that builds and runs itself with its own
perfbench/run.py (make the parent with `git archive`; never copy a
.bench_build/ between checkouts). Pair k runs the parent first when k is
even and the change first when k is odd. For each end-to-end metric that
the change tree's BENCHMARK.json names, the script prints one row per
pair, each side's median and quartiles, and how many pairs the change
won (a tie counts for neither side). A run that exits non-zero, fails
operations or reports wrong rows stops the script. Nothing under
perfbench/ is read but the JSON line each run prints last.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seconds, seed):
    """One perfbench run of `tree`; returns its parsed JSON result."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", str(seconds), "--seed", str(seed)]
    result = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write("\n".join(result.stderr.splitlines()[-20:]) + "\n")
        sys.exit(f"perf_pairs: {tree}: perfbench exited "
                 f"{result.returncode}")
    report = json.loads(lines[-1])
    if not report.get("correct") or report.get("failed", 0) != 0:
        sys.exit(f"perf_pairs: {tree}: correct={report.get('correct')} "
                 f"failed={report.get('failed')}")
    return report


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((args.change_tree / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    trees = {"parent": args.parent_tree.resolve(),
             "change": args.change_tree.resolve()}
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload,
                                       args.seconds, args.seed))
        print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs "
          f"of {args.seconds:g} s, odd pairs parent first")
    for name, unit, better in metrics:
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if better == "higher" else c < p))
        print(f"\n{name} ({unit}, {better} is better)")
        for k, (p, c) in enumerate(zip(parent, change)):
            print(f"  pair {k + 1:2d}: parent {p:.6g}  change {c:.6g}")
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(values)
            print(f"  {side}: median {median:.6g}  "
                  f"quartiles {q1:.6g}-{q3:.6g}")
        print(f"  change better in {wins}/{len(parent)} pairs")


if __name__ == "__main__":
    main()
