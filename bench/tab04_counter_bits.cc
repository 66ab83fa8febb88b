/**
 * @file
 * Table IV -- the reward/punishment counter width: 1, 2 (default), or
 * 3 bits.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(tab04_counter_bits, "Table IV", "Saturating counter width",
             "speedup 3.98/4.74/4.21% for 1/2/3 bits")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const SuiteResult base = runSuite("base", baselineConfig, apps);

    TextTable table;
    table.setHeader({"# bits", "mean speedup vs baseline"});
    for (unsigned bits : {1u, 2u, 3u}) {
        const SuiteResult suite = runSuite(
            "bits", [bits](const std::string &app) {
                SimConfig cfg = accKaguraConfig(app);
                cfg.kagura.counterBits = bits;
                return cfg;
            },
            apps);
        std::string label = std::to_string(bits);
        if (bits == 2)
            label += " (default)";
        table.addRow(
            {label, TextTable::pct(meanSpeedupPct(suite, base))});
    }
    table.print();
    return 0;
}
