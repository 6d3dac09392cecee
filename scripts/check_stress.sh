#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer (like
# scripts/check_asan.sh) and runs the `stress` ctest label `runs` times
# beside nproc - 1 CPU-spinning shells, stopping at the first failure. The
# stress suites compare process- and thread-mode output byte for byte with
# single-process output, so a run that fails here lost or changed rows
# because the host was busy (DESIGN.md §14: scheduling delay is not a
# fault).
#
# Usage: scripts/check_stress.sh [runs]   (default 20)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
RUNS="${1:-20}"

cmake -B "${BUILD_DIR}" -S . -DGS_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j"$(nproc)"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=0"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# The spinners leave one CPU for the suite; the trap ends them however the
# script exits.
spinners=()
stop_spinners() {
  if ((${#spinners[@]} > 0)); then kill "${spinners[@]}" 2>/dev/null || true; fi
}
trap stop_spinners EXIT
hogs=$(($(nproc) - 1))
for ((i = 0; i < hogs; ++i)); do
  sh -c 'while :; do :; done' &
  spinners+=($!)
done

cd "${BUILD_DIR}"
for ((run = 1; run <= RUNS; ++run)); do
  echo "stress run ${run}/${RUNS} beside ${hogs} spinning shells"
  ctest -L stress --output-on-failure
done
