/**
 * @file
 * Section VII-A / VII-C extension study (not a paper figure): atomic
 * peripheral regions add region-entry checkpoints and rollback
 * re-execution, consuming extra energy and causing more outages --
 * which the paper argues gives Kagura *more* useless compressions to
 * avert. Sweep the region frequency and compare ACC vs ACC+Kagura.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(ext_peripheral_regions, "Ext. VII-A", "Atomic peripheral regions",
             "region checkpoints consume extra energy, giving "
             "Kagura more opportunities (Sections VII-A/VII-C)")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    TextTable table;
    table.setHeader({"I/O region interval", "+ACC", "+ACC+Kagura",
                     "Kagura-vs-ACC delta"});
    for (std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{4000},
                                   std::uint64_t{1500}}) {
        auto shaped = [interval](SimConfig cfg) {
            cfg.ioRegionInterval = interval;
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
        const double a = meanSpeedupPct(acc, base);
        const double k = meanSpeedupPct(kagura, base);
        const std::string label =
            interval == 0 ? "none (kernel only)"
                          : "every " + std::to_string(interval) +
                                " instrs";
        table.addRow({label, TextTable::pct(a), TextTable::pct(k),
                      TextTable::pct(k - a)});
    }
    table.print();
    std::printf("\nExpected shape: more frequent regions increase the "
                "persistence overhead for everyone; Kagura's edge over "
                "plain ACC holds or grows.\n");
    return 0;
}
