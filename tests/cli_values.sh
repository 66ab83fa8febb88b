#!/usr/bin/env bash
# Flag-value spellings of the CLIs.
#
#   cli_values.sh sim PATH/kagura_sim
#   cli_values.sh grid PATH/kagura_sweep
#   cli_values.sh bench PATH/kagura_bench
#   cli_values.sh trace PATH/kagura_trace PATH/trace_gen
#   cli_values.sh diff PATH/bench_diff
#
# `sim` drives kagura_sim with --dump-config (nothing is simulated):
# every accepted spelling must resolve to the expected canonical-key
# line, and every bad value must exit nonzero with "bad value" (or
# "unknown workload"). `grid` checks that kagura_sweep grid accepts
# the same names and aliases (a two-job crc32 grid in a throwaway
# result cache), rejects each bad axis value before running a job, and
# that `cache gc` rejects sizes and ages that are not 64-bit counts.
# `bench` checks that kagura_bench lists 31 distinct benches, rejects
# an unknown name with the valid list, and rejects malformed
# --jobs/--repeats values; `trace` checks that kagura_trace's
# convert-champsim and trace_gen reject malformed numbers; `diff`
# feeds bench_diff two hand-written kagura.bench/v1 summaries and
# checks that it compares only benches of the same shape (jobs and
# sims) and that its geomean gate fails a drop past the bound.
# Where /dev/full exists, `sim`, `bench` and `trace` also check that a
# --metrics-out export that cannot be written fails the run.
set -u

mode=$1
bin=$2
bin2=${3:-}
failures=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
data=$(dirname "$0")/data

fail() {
    echo "FAIL: $*"
    failures=$((failures + 1))
}

# accept FLAG VALUE KEYLINE: `kagura_sim FLAG VALUE --dump-config`
# succeeds and prints KEYLINE.
accept() {
    local out
    if ! out=$("$bin" "$1" "$2" --dump-config 2>&1); then
        fail "$1 $2 exited nonzero: $out"
    elif ! grep -qxF "$3" <<<"$out"; then
        fail "$1 $2 did not give '$3'"
    fi
}

# reject MESSAGE ARGS...: the command exits nonzero and says MESSAGE
# without having run a simulation.
reject() {
    local message=$1 out
    shift
    if out=$("$bin" "$@" 2>&1); then
        fail "$* was accepted"
    elif ! grep -qF "$message" <<<"$out"; then
        fail "$* did not say '$message': $out"
    elif grep -qF '[runner]' <<<"$out"; then
        fail "$* ran jobs before rejecting"
    fi
}

sim_checks() {
    # Every spelling the hand-written flag parsers accepted...
    accept --governor none governor=none
    accept --governor always governor=always
    accept --governor acc governor=ACC
    accept --compressor bdi compressor=BDI
    accept --compressor fpc compressor=FPC
    accept --compressor cpack compressor=C-Pack
    accept --compressor dzc compressor=DZC
    accept --trigger mem kagura.trigger=mem
    accept --trigger vol kagura.trigger=vol
    accept --scheme aimd kagura.scheme=AIMD
    accept --scheme miad kagura.scheme=MIAD
    accept --scheme aiad kagura.scheme=AIAD
    accept --scheme mimd kagura.scheme=MIMD
    accept --ehs nvsram ehs=NVSRAMCache
    accept --ehs nvmr ehs=NvMR
    accept --ehs sweepcache ehs=SweepCache
    accept --ehs taskbased ehs=TaskBased
    accept --ehs specpersist ehs=SpecPersist
    accept --tag-layout superblock dcache.tag_layout=superblock
    accept --tag-layout Signature icache.tag_layout=signature
    accept --nvm reram nvm.type=ReRAM
    accept --nvm pcm nvm.type=PCM
    accept --nvm sttram nvm.type=STTRAM
    accept --trace rfhome trace.kind=RFHome
    accept --trace solar trace.kind=Solar
    accept --trace thermal trace.kind=Thermal
    accept --trace constant trace.kind=Constant
    accept --trace-seed 0x10 trace.seed=16
    accept --trace-seed 010 trace.seed=8
    accept --trace-seed 77 trace.seed=77
    accept --cache-bytes 512 dcache.size_bytes=512
    accept --ways 4 icache.ways=4
    accept --block-bytes 64 dcache.block_size=64
    accept --sig-bits 5 dcache.sig_bits=5
    accept --counter-bits 3 kagura.counter_bits=3
    accept --history-depth 2 kagura.history_depth=2
    accept --increase-step 12.5 kagura.increase_step=0.125
    accept --nvm-mb 8 nvm.bytes=8388608
    accept --cap-uf 10 capacitor.capacitance=9.9999999999999991e-06
    accept --l2 1024x4:acc+kagura l2.governor=ACC
    accept --app dijkstra workload=dijkstra
    # ...plus the canonical spellings and the extension compressors.
    accept --compressor bpc compressor=BPC
    accept --compressor fvc compressor=FVC
    accept --compressor C-Pack compressor=C-Pack
    accept --compressor BDI compressor=BDI
    accept --trace RFHome trace.kind=RFHome
    accept --ehs NVSRAMCache ehs=NVSRAMCache
    accept --governor ACC governor=ACC

    reject "bad value" --compressor gzip
    reject "bad value" --ehs nvsramcachex
    reject "bad value" --trace sunny
    reject "bad value" --tag-layout touche
    reject "bad value" --cache-bytes abc
    reject "bad value" --cache-bytes 256abc
    reject "bad value" --cache-bytes ""
    reject "bad value" --counter-bits -1
    reject "bad value" --ways 4294967296
    reject "bad value" --cap-uf x
    reject "bad value" --increase-step 10%
    reject "bad value" --nvm-mb 99999999999999999
    reject "bad value" --sig-bits 0
    reject "bad value" --trace-seed 0xZZ
    reject "bad value" --trace-seed 08
    reject "bad value" --jobs 0
    reject "unknown workload" --app nope --dump-config

    if [ -e /dev/full ]; then
        KAGURA_CACHE_DIR="$tmp/cache" reject "cannot write metrics output" \
            --app crc32 --quiet --metrics-out /dev/full
    fi
}

# grid_accept ARGS...: a two-job crc32 grid over ARGS runs.
grid_accept() {
    local out
    if ! out=$("$bin" grid --apps crc32 --seeds 1 "$@" 2>&1); then
        fail "grid $* exited nonzero: $out"
    elif ! grep -qF 'jobs=2 ' <<<"$out"; then
        fail "grid $* did not run two jobs: $out"
    fi
}

grid_checks() {
    export KAGURA_CACHE_DIR="$tmp/cache" KAGURA_JOBS=1
    # The spellings the grid accepted before, then the CLI aliases
    # and canonical names.
    grid_accept --compressors bdi,C-Pack --ehs nvsramcache \
        --traces rfhome --cap-uf 4.7
    grid_accept --compressors cpack,BPC --ehs nvsram --traces RFHome

    reject "bad value" grid --compressors gzip
    reject "bad value" grid --ehs foo
    reject "bad value" grid --traces sunny
    reject "bad value" grid --cap-uf x
    reject "bad value" grid --cap-uf 0
    reject "bad value" grid --seeds abc
    reject "bad value" grid --seeds 0
    reject "bad value" grid --seeds -1

    # cache gc sizes and ages: non-numbers, non-finite values and
    # anything past 64 bits after the suffix are rejected up front.
    for bad in abc -1 nan inf 1e20 17179869184G; do
        reject "bad byte count" cache gc --max-bytes "$bad"
    done
    for bad in abc -1 nan inf 1e20 213503982334602d; do
        reject "bad age" cache gc --max-age "$bad"
    done
    reject "bad byte suffix" cache gc --max-bytes 5T
    local out
    out=$("$bin" cache gc --max-bytes 512M --max-age 30d 2>&1) \
        || fail "cache gc --max-bytes 512M --max-age 30d failed: $out"
    reject "unknown workload" grid --apps nope
    reject "bad L2" grid --l2 big
}

bench_checks() {
    local names
    names=$("$bin" --list | awk '{print $1}')
    [ "$(wc -l <<<"$names")" -eq 31 ] \
        || fail "--list did not print 31 benches: $names"
    [ -z "$(sort <<<"$names" | uniq -d)" ] \
        || fail "--list repeats a name: $(sort <<<"$names" | uniq -d)"
    reject "valid names: all, fig01_cache_size_motivation," nope
    reject "unknown bench 'nope'" fig03_delta_rhit_model nope

    for bad in 8x abc -1 0 99999999999; do
        reject "bad value" --jobs "$bad" fig03_delta_rhit_model
        reject "bad value" --repeats "$bad" fig03_delta_rhit_model
    done
    reject "needs \`all\`" --summary "$tmp/s.json" fig03_delta_rhit_model

    local out
    if [ -e /dev/full ]; then
        if out=$("$bin" fig03_delta_rhit_model --metrics-out /dev/full 2>&1)
        then
            fail "an unwritable --metrics-out was accepted"
        elif ! grep -qF "cannot write metrics output" <<<"$out"; then
            fail "an unwritable --metrics-out was not reported: $out"
        fi
    fi
}

trace_checks() {
    local gen=$bin2
    for bad in 8x abc -1 99999999999999999999; do
        for flag in --max-records --data-window --code-window; do
            reject "bad value" convert-champsim /dev/null \
                "$tmp/out.kgt" "$flag" "$bad"
        done
        bin=$gen reject "bad value" rfhome "$bad"
        bin=$gen reject "bad value" rfhome 4 "$bad"
    done
    local out
    out=$("$gen" rfhome 0x4 010) || fail "trace_gen rfhome 0x4 010 failed"
    [ "$(wc -l <<<"$out")" -eq 4 ] \
        || fail "trace_gen rfhome 0x4 did not print 4 intervals"

    if [ -e /dev/full ]; then
        "$bin" convert-champsim "$data/mini.champsim" "$tmp/mini.kgt" \
            >/dev/null || fail "convert-champsim mini.champsim failed"
        KAGURA_CACHE_DIR="$tmp/cache" reject "cannot write metrics output" \
            replay "$tmp/mini.kgt" --metrics-out /dev/full
    fi
}

# summary FILE GEOMEAN BENCHES: a kagura.bench/v1 summary whose
# "benches" map is BENCHES (JSON object members).
summary() {
    cat >"$1" <<EOF
{"schema": "kagura.bench/v1", "pr": "t", "total_wall_seconds": 1,
 "benches_passed": 2, "benches_failed": 0, "sims_run": 10,
 "runner_jobs": 20, "cache_hits": 10, "cache_lookups": 20,
 "cache_hit_rate": 0.5, "fig13_speedup_geomean": $2,
 "benches": {$3}}
EOF
}

diff_checks() {
    local out
    summary "$tmp/old.json" 1.0 \
        '"same": {"job_seconds": 2, "jobs": 10, "sims": 5},
         "shape": {"job_seconds": 0.05, "jobs": 600, "sims": 0}'
    summary "$tmp/new.json" 0.98 \
        '"same": {"job_seconds": 3, "jobs": 10, "sims": 5},
         "shape": {"job_seconds": 2, "jobs": 120, "sims": 40}'
    out=$("$bin" "$tmp/old.json" "$tmp/new.json" --max-geomean-drop 5 2>&1) \
        || fail "a 2% geomean drop failed a 5% bound: $out"
    grep -qE '^  same +2 -> +3 +\(\+50\.00%\)$' <<<"$out" \
        || fail "same-shape bench did not print its delta: $out"
    grep -qxF '  shape                    shape differs: jobs 600 -> 120, sims 0 -> 40' \
        <<<"$out" || fail "shape change was not reported: $out"
    grep -qF '3900' <<<"$out" && fail "shape-mismatched delta printed: $out"
    reject "regressed 2.000%" "$tmp/old.json" "$tmp/new.json" \
        --max-geomean-drop 1
}

case $mode in
  sim) sim_checks ;;
  grid) grid_checks ;;
  bench) bench_checks ;;
  trace) trace_checks ;;
  diff) diff_checks ;;
  *) echo "usage: $0 sim|grid|bench|diff BINARY | trace KAGURA_TRACE TRACE_GEN"
     exit 2 ;;
esac

if [ "$failures" -ne 0 ]; then
    echo "$failures failure(s)"
    exit 1
fi
echo "all $mode spellings ok"
