/**
 * @file
 * Fig. 26 -- cache block size sensitivity: 16/32/64 B blocks at the
 * same total size.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig26_block_sizes, "Fig. 26", "Cache block sizes",
             "good ACC+Kagura performance from 16 B to 64 B")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    TextTable table;
    table.setHeader({"block size", "+ACC", "+ACC+Kagura"});
    for (unsigned block : {16u, 32u, 64u}) {
        auto shaped = [block](SimConfig cfg) {
            cfg.icache.blockSize = block;
            cfg.dcache.blockSize = block;
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
        table.addRow({std::to_string(block) + " B",
                      TextTable::pct(meanSpeedupPct(acc, base)),
                      TextTable::pct(meanSpeedupPct(kagura, base))});
    }
    table.print();
    return 0;
}
