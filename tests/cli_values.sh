#!/usr/bin/env bash
# Flag-value spellings of the two CLIs.
#
#   cli_values.sh sim PATH/kagura_sim
#   cli_values.sh grid PATH/kagura_sweep
#
# `sim` drives kagura_sim with --dump-config (nothing is simulated):
# every accepted spelling must resolve to the expected canonical-key
# line, and every bad value must exit nonzero with "bad value" (or
# "unknown workload"). `grid` checks that kagura_sweep grid accepts
# the same names and aliases (a two-job crc32 grid in a throwaway
# result cache) and rejects each bad axis value before running a job.
set -u

mode=$1
bin=$2
failures=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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
    reject "unknown workload" grid --apps nope
    reject "bad L2" grid --l2 big
}

case $mode in
  sim) sim_checks ;;
  grid) grid_checks ;;
  *) echo "usage: $0 sim|grid BINARY"; exit 2 ;;
esac

if [ "$failures" -ne 0 ]; then
    echo "$failures failure(s)"
    exit 1
fi
echo "all $mode spellings ok"
