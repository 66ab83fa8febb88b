/**
 * @file
 * Fig. 25 -- associativity sensitivity: 1- to 8-way caches of the
 * same 256 B size.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig25_cache_ways, "Fig. 25", "Cache associativity",
             "ACC+Kagura gains 4.74%..5.73% from direct-mapped to "
             "8-way")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    TextTable table;
    table.setHeader({"ways", "+ACC", "+ACC+Kagura"});
    for (unsigned ways : {1u, 2u, 4u, 8u}) {
        auto shaped = [ways](SimConfig cfg) {
            cfg.icache.ways = ways;
            cfg.dcache.ways = ways;
            return cfg;
        };
        const SuiteResult base = runSuite(
            "base", [&](const std::string &a) {
                return shaped(baselineConfig(a));
            },
            apps);
        const SuiteResult acc = runSuite(
            "acc",
            [&](const std::string &a) { return shaped(accConfig(a)); },
            apps);
        const SuiteResult kagura = runSuite(
            "kagura", [&](const std::string &a) {
                return shaped(accKaguraConfig(a));
            },
            apps);
        table.addRow({std::to_string(ways),
                      TextTable::pct(meanSpeedupPct(acc, base)),
                      TextTable::pct(meanSpeedupPct(kagura, base))});
    }
    table.print();
    std::printf("\nExpected shape: consistent ACC+Kagura improvement "
                "across all associativities.\n");
    return 0;
}
