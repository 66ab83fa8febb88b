#!/usr/bin/env bash
# Build and run every bench binary as a cheap smoke sweep:
# KAGURA_REPEATS=1 (one trace seed per configuration) across N runner
# workers, sharing one persistent result cache. Prints one telemetry
# line per bench, a per-bench pass/fail summary, and the aggregate
# wall time and cache hit rate; exits nonzero when any bench fails
# (the CI gate).
#
# Usage:
#   tools/run_all_benches.sh            # all cores, repo-root build/
#   JOBS=8 tools/run_all_benches.sh     # fixed worker count
#   KAGURA_REPEATS=5 tools/run_all_benches.sh   # full-fidelity sweep
#   BUILD_DIR=/tmp/b tools/run_all_benches.sh   # out-of-tree build
#   BENCH_JSON=BENCH_LOCAL.json tools/run_all_benches.sh
#       # metrics mode: every bench also writes a kagura.metrics/v1
#       # JSON-lines export; the sweep validates them and aggregates
#       # a kagura.bench/v1 summary (total wall time, sims run, cache
#       # hit rate, fig13 speedup geomean) into $BENCH_JSON.
#
# A second invocation with a warm .kagura-cache should report
# sims=0 / hit_rate=100% and finish in seconds.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
JOBS="${JOBS:-$(nproc)}"
BENCH_JSON="${BENCH_JSON:-}"
export KAGURA_REPEATS="${KAGURA_REPEATS:-1}"

cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j >/dev/null

metrics_dir=""
cleanup() {
    [ -n "$metrics_dir" ] && rm -rf "$metrics_dir"
    return 0
}
trap cleanup EXIT

if [ -n "$BENCH_JSON" ]; then
    metrics_dir=$(mktemp -d)
fi

total_jobs=0
total_sims=0
total_hits=0
total_lookups=0
passed=0
failed=0
failed_names=()
sweep_start=$(date +%s.%N)

for bench in "$BUILD"/bench/fig* "$BUILD"/bench/tab* \
             "$BUILD"/bench/abl* "$BUILD"/bench/ext*; do
    [ -x "$bench" ] || continue
    name=$(basename "$bench")
    flags=(--jobs "$JOBS")
    if [ -n "$metrics_dir" ]; then
        flags+=(--metrics-out "$metrics_dir/$name.jsonl")
    fi
    bench_start=$(date +%s.%N)
    if ! out=$("$bench" "${flags[@]}" 2>&1); then
        echo "FAIL  $name"
        failed=$((failed + 1))
        failed_names+=("$name")
        continue
    fi
    bench_end=$(date +%s.%N)
    passed=$((passed + 1))
    line=$(grep -F '[runner]' <<<"$out" | tail -1)
    secs=$(awk -v a="$bench_start" -v b="$bench_end" \
               'BEGIN { printf "%.1f", b - a }')
    printf '%-28s %6ss  %s\n' "$name" "$secs" "${line#\[runner\] }"

    # [runner] jobs=J sims=S cache_hits=H/L hit_rate=... threads=T
    jobs=$(sed -n 's/.*jobs=\([0-9]*\).*/\1/p' <<<"$line")
    sims=$(sed -n 's/.*sims=\([0-9]*\).*/\1/p' <<<"$line")
    hits=$(sed -n 's/.*cache_hits=\([0-9]*\)\/.*/\1/p' <<<"$line")
    lookups=$(sed -n 's/.*cache_hits=[0-9]*\/\([0-9]*\).*/\1/p' \
                  <<<"$line")
    total_jobs=$((total_jobs + ${jobs:-0}))
    total_sims=$((total_sims + ${sims:-0}))
    total_hits=$((total_hits + ${hits:-0}))
    total_lookups=$((total_lookups + ${lookups:-0}))
done

sweep_end=$(date +%s.%N)
total_wall=$(awk -v a="$sweep_start" -v b="$sweep_end" \
                 'BEGIN { printf "%.3f", b - a }')
awk -v wall="$total_wall" -v jobs="$total_jobs" \
    -v sims="$total_sims" -v hits="$total_hits" \
    -v lookups="$total_lookups" -v threads="$JOBS" \
    -v repeats="$KAGURA_REPEATS" 'BEGIN {
    rate = lookups ? 100.0 * hits / lookups : 0.0
    printf "\nTOTAL  wall=%.1fs  jobs=%d  sims=%d  ", wall, jobs, sims
    printf "cache_hits=%d/%d (%.1f%%)  threads=%s  repeats=%s\n", \
        hits, lookups, rate, threads, repeats
}'

echo "SUMMARY  passed=$passed failed=$failed"
for name in ${failed_names[@]+"${failed_names[@]}"}; do
    echo "  FAILED  $name"
done

if [ -n "$metrics_dir" ]; then
    exports=("$metrics_dir"/*.jsonl)
    if [ ! -e "${exports[0]}" ]; then
        echo "metrics mode: no exports produced" >&2
        exit 1
    fi
    "$BUILD"/tools/metrics_agg --check "${exports[@]}" >/dev/null
    "$BUILD"/tools/metrics_agg --out "$BENCH_JSON" \
        --pr "${BENCH_PR:-PR2}" --wall "$total_wall" \
        --passed "$passed" --failed "$failed" "${exports[@]}"
    "$BUILD"/tools/metrics_agg --check-bench "$BENCH_JSON"
fi

exit "$((failed > 0))"
