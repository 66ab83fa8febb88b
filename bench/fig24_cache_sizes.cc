/**
 * @file
 * Fig. 24 -- cache-size sensitivity: ACC and ACC+Kagura across 128 B
 * to 4 kB caches, each against the same-size compressor-free
 * baseline.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig24_cache_sizes, "Fig. 24", "Cache sizes",
             "ACC+Kagura gains 1.97%..5.85% across sizes; larger "
             "benefit with smaller caches")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    TextTable table;
    table.setHeader({"cache size", "+ACC", "+ACC+Kagura",
                     "Kagura-vs-ACC delta"});
    for (unsigned size : {128u, 256u, 512u, 1024u, 4096u}) {
        auto sized = [size](SimConfig cfg) {
            cfg.icache.sizeBytes = size;
            cfg.dcache.sizeBytes = size;
            return cfg;
        };
        const SuiteResult base = runSuite(
            "base", [&](const std::string &a) {
                return sized(baselineConfig(a));
            },
            apps);
        const SuiteResult acc = runSuite(
            "acc",
            [&](const std::string &a) { return sized(accConfig(a)); },
            apps);
        const SuiteResult kagura = runSuite(
            "kagura", [&](const std::string &a) {
                return sized(accKaguraConfig(a));
            },
            apps);
        const double a = meanSpeedupPct(acc, base);
        const double k = meanSpeedupPct(kagura, base);
        table.addRow({std::to_string(size) + " B", TextTable::pct(a),
                      TextTable::pct(k), TextTable::pct(k - a)});
    }
    table.print();
    std::printf("\nExpected shape: Kagura's edge over ACC shrinks as "
                "caches grow (fewer compressions happen at all).\n");
    return 0;
}
