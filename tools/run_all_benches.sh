#!/usr/bin/env bash
# Build, then run every paper bench in one kagura_bench process as a
# cheap smoke sweep: KAGURA_REPEATS=1 (one trace seed per
# configuration) across N runner workers, sharing one persistent
# result cache. kagura_bench prints each bench's tables and [runner]
# line, then TOTAL and SUMMARY lines, and exits nonzero when any
# bench fails. Extra arguments go to kagura_bench.
#
# Usage:
#   tools/run_all_benches.sh            # all cores, repo-root build/
#   JOBS=8 tools/run_all_benches.sh     # fixed worker count
#   KAGURA_REPEATS=5 tools/run_all_benches.sh   # full-fidelity sweep
#   BUILD_DIR=/tmp/b tools/run_all_benches.sh   # out-of-tree build
#   tools/run_all_benches.sh --summary BENCH_LOCAL.json
#       # also write the kagura.bench/v1 summary (pr from BENCH_PR)
#
# A second invocation with a warm .kagura-cache should report
# sims=0 / hit_rate=100% and finish in seconds.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
export KAGURA_REPEATS="${KAGURA_REPEATS:-1}"

cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j >/dev/null
exec "$BUILD"/bench/kagura_bench all --jobs "${JOBS:-$(nproc)}" "$@"
