/**
 * @file
 * Table II -- number of past power cycles folded (recency-weighted)
 * into the memory-operation estimate; the paper finds depth 1 best.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(tab02_history_depth,
             "Table II", "History depth for N_prev estimation",
             "speedup 4.74/4.09/3.35/2.60% for 1/2/3/4 cycles")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const SuiteResult base = runSuite("base", baselineConfig, apps);

    TextTable table;
    table.setHeader({"# cycles", "mean speedup vs baseline"});
    for (unsigned depth : {1u, 2u, 3u, 4u}) {
        const SuiteResult suite = runSuite(
            "depth", [depth](const std::string &app) {
                SimConfig cfg = accKaguraConfig(app);
                cfg.kagura.historyDepth = depth;
                return cfg;
            },
            apps);
        std::string label = std::to_string(depth);
        if (depth == 1)
            label += " (default)";
        table.addRow(
            {label, TextTable::pct(meanSpeedupPct(suite, base))});
    }
    table.print();
    std::printf("\nExpected shape: monotonically decreasing benefit "
                "with deeper history (only the immediately preceding "
                "cycle predicts well).\n");
    return 0;
}
