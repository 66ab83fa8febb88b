/**
 * @file
 * Fig. 30 -- ambient-source sensitivity: RFHome, solar, and thermal
 * traces.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig30_power_traces, "Fig. 30", "Power traces",
             "ACC+Kagura: 4.74% RFHome, 4.58% solar, 4.54% "
             "thermal")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    TextTable table;
    table.setHeader({"trace", "+ACC", "+ACC+Kagura"});
    for (TraceKind kind :
         {TraceKind::RfHome, TraceKind::Solar, TraceKind::Thermal}) {
        auto shaped = [kind](SimConfig cfg) {
            cfg.trace = kind;
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
        table.addRow({traceKindName(kind),
                      TextTable::pct(meanSpeedupPct(acc, base)),
                      TextTable::pct(meanSpeedupPct(kagura, base))});
    }
    table.print();
    std::printf("\nExpected shape: consistent ACC+Kagura improvement "
                "across ambient sources.\n");
    return 0;
}
