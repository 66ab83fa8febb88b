/**
 * @file
 * kagura_bench -- every paper figure/table reproduction in one binary.
 *
 *   kagura_bench fig13_main_speedup [--jobs N] [--repeats N] ...
 *   kagura_bench all --summary BENCH.json
 *   kagura_bench --list
 *
 * Each fig, tab, abl and ext source registers itself with
 * KAGURA_BENCH; runBenches() (bench_common.hh) documents the flags.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    return kagura::bench::runBenches(argc, argv,
                                     kagura::bench::registry());
}
