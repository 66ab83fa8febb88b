/**
 * @file
 * Fig. 22 -- the additive increase step for R_thres, swept from 5% to
 * 20%; the paper selects 10%.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig22_increase_step, "Fig. 22", "R_thres increase step",
             "10% best; 5% too conservative, 15-20% too "
             "aggressive")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const SuiteResult base = runSuite("base", baselineConfig, apps);

    TextTable table;
    table.setHeader({"increase step", "mean speedup vs baseline"});
    for (double step : {0.05, 0.10, 0.15, 0.20}) {
        const SuiteResult suite = runSuite(
            "step", [step](const std::string &app) {
                SimConfig cfg = accKaguraConfig(app);
                cfg.kagura.increaseStep = step;
                return cfg;
            },
            apps);
        std::string label = TextTable::num(step * 100, 0) + "%";
        if (step == 0.10)
            label += " (*)";
        table.addRow(
            {label, TextTable::pct(meanSpeedupPct(suite, base))});
    }
    table.print();
    return 0;
}
