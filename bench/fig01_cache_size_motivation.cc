/**
 * @file
 * Fig. 1 -- the motivation experiment: speedup of the compressor-free
 * NVSRAMCache baseline across cache sizes, normalised to 256 B
 * ICache/DCache. Small caches lose to misses; large caches lose to
 * leakage, access energy, and checkpoint flush cost.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig01_cache_size_motivation,
             "Fig. 1", "Speedup vs cache size (no compression)",
             "256 B is the sweet spot; >=512 B declines (leakage/checkpoint), "
             "128 B suffers misses")
{
    const unsigned sizes[] = {128, 256, 512, 1024, 2048, 4096};

    SuiteResult reference = runSuite("256B", [](const std::string &app) {
        return baselineConfig(app);
    });

    TextTable table;
    table.setHeader({"cache size (each)", "mean speedup vs 256 B"});
    BarChart chart("Fig. 1: speedup over 256 B caches", "%");
    for (unsigned size : sizes) {
        SuiteResult suite = runSuite(
            std::to_string(size) + "B", [size](const std::string &app) {
                SimConfig cfg = baselineConfig(app);
                cfg.icache.sizeBytes = size;
                cfg.dcache.sizeBytes = size;
                return cfg;
            });
        const double speedup = meanSpeedupPct(suite, reference);
        table.addRow({std::to_string(size) + " B",
                      TextTable::pct(speedup)});
        chart.add(std::to_string(size) + "B", "", speedup);
    }
    table.print();
    chart.print();
    std::printf("\nExpected shape: peak at 256 B, monotonic decline "
                "toward 4 kB, sharp loss at 128 B.\n");
    return 0;
}
