#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload filter_replay --seed 1 \
        --seconds 10 --trace 0

The program (gsbench) is compiled (CMake, Release) into .bench_build/perfbench on the
first call; later calls rebuild only what changed. The last line of
standard output is the program's JSON result. Any other argument
(--packets, --corrupt-reference) is passed to it as is.
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "gsbench"
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds gsbench; exits non-zero on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    # Configuring every time is cheap once cached, and it regenerates the
    # build files when a CMakeLists.txt changed.
    steps = [["cmake", "-S", str(SOURCE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "gsbench",
              "-j", BUILD_JOBS]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    build()
    command = [str(PROGRAM), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + extra
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: gsbench timed out\n")
        sys.exit(1)
    sys.stdout.write(result.stdout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
