#!/usr/bin/env bash
# The benchmark's single command: build benchmark/ (CMake, Release,
# into build_bench/ at the repository root), then run the workloads,
# check their outputs and print every metric (benchmark/run.py).
#
#   bash benchmark/run.sh                      every workload, 3 repetitions
#   bash benchmark/run.sh --traced             plus the per-layer table
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --runs 10 --out set.json   a result set for compare.py
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build_bench"

if [[ ! -f "$build/Makefile" ]]; then
  cmake -S "$root/benchmark" -B "$build" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 2 >&2

exec python3 "$root/benchmark/run.py" --build "$build" "$@"
