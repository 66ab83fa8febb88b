/**
 * @file
 * Fig. 27 -- main-memory size sensitivity: 2..32 MB NVM arrays
 * (larger arrays raise the per-miss energy).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig27_mem_sizes, "Fig. 27", "Main memory sizes",
             "gains shrink as memory grows (4.22% at 2 MB -> "
             "3.69% at 32 MB)")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    TextTable table;
    table.setHeader({"NVM size", "+ACC", "+ACC+Kagura"});
    for (unsigned mb : {2u, 8u, 16u, 32u}) {
        auto shaped = [mb](SimConfig cfg) {
            cfg.nvmBytes = static_cast<std::uint64_t>(mb) << 20;
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
        table.addRow({std::to_string(mb) + " MB",
                      TextTable::pct(meanSpeedupPct(acc, base)),
                      TextTable::pct(meanSpeedupPct(kagura, base))});
    }
    table.print();
    return 0;
}
