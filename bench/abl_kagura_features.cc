/**
 * @file
 * Ablation study (not a paper figure): dismantle Kagura piece by
 * piece -- the R_adjust learning correction, the AIMD threshold
 * adaptation, and the reward/punishment counter (1-bit) -- to show
 * each mechanism's contribution to the full design.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(abl_kagura_features, "Ablation", "Kagura mechanism ablation",
             "(repository extension; the paper's Tables II/IV and "
             "Figs. 21/22 sweep parameters, this removes "
             "mechanisms outright)")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const SuiteResult base = runSuite("base", baselineConfig, apps);

    struct Variant
    {
        const char *label;
        bool adjust;
        bool adaptive;
        unsigned bits;
    };
    const Variant variants[] = {
        {"full Kagura", true, true, 2},
        {"- R_adjust learning", false, true, 2},
        {"- AIMD (fixed threshold)", true, false, 2},
        {"- confidence counter (1 bit)", true, true, 1},
        {"- all three", false, false, 1},
    };

    TextTable table;
    table.setHeader({"variant", "mean speedup vs baseline"});
    for (const Variant &v : variants) {
        const SuiteResult suite = runSuite(
            v.label, [&](const std::string &app) {
                SimConfig cfg = accKaguraConfig(app);
                cfg.kagura.applyAdjustment = v.adjust;
                cfg.kagura.adaptiveThreshold = v.adaptive;
                cfg.kagura.counterBits = v.bits;
                return cfg;
            },
            apps);
        table.addRow(
            {v.label, TextTable::pct(meanSpeedupPct(suite, base))});
    }
    table.print();
    std::printf("\nReading: the gap between 'full Kagura' and each "
                "row is that mechanism's contribution on this "
                "workload subset.\n");
    return 0;
}
