#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json, and regex_threads, it runs run.py
briefly, untraced and traced, and asserts that the result line is well
formed, that every metric
BENCHMARK.json names prints with its unit, that every output row matched
the reference (wrong_row_frac is 0), and that one deliberately altered
reference row is counted as exactly one failure, so the checker cannot pass
vacuously. Exits non-zero on the first failed assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seconds", "1", "--packets", "4000"]
# Workloads gsbench runs by name that BENCHMARK.json does not list (see
# README.md, "Noise").
BY_NAME_ONLY = ["regex_threads"]


def run(workload, trace, *extra):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "3",
               "--trace", str(trace)] + TINY + list(extra)
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            timeout=600)
    check(result.returncode == 0, f"{workload}: exit code {result.returncode}")
    lines = result.stdout.strip().splitlines()
    check(bool(lines), f"{workload}: no output")
    return json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.stderr.write(f"selftest FAILED: {message}\n")
        sys.exit(1)


def check_metrics(workload, result, declared):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload}: attempted {result['attempted']}")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in declared},
          f"{workload}: metric names {sorted(metrics)}")
    for m in declared:
        got = metrics[m["name"]]
        check(got.get("unit") == m["unit"],
              f"{workload}: {m['name']} unit {got.get('unit')}")
        check(isinstance(got.get("value"), (int, float)),
              f"{workload}: {m['name']} value {got.get('value')}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] + BY_NAME_ONLY
    for workload in workloads:
        untraced = run(workload, 0)
        check_metrics(workload, untraced, spec["end_to_end"])
        check(untraced["correct"] and untraced["failed"] == 0,
              f"{workload}: {untraced['failed']} wrong rows")

        traced = run(workload, 1)
        check_metrics(workload, traced, spec["per_layer"])
        check(traced["metrics"]["wrong_row_frac"]["value"] == 0,
              f"{workload}: wrong_row_frac is not 0")

        corrupted = run(workload, 0, "--corrupt-reference")
        check(not corrupted["correct"] and corrupted["failed"] == 1,
              f"{workload}: altered reference row counted "
              f"{corrupted['failed']} times, expected once")
        print(f"selftest ok: {workload}")
    print("selftest passed")


if __name__ == "__main__":
    main()
