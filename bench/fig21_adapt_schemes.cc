/**
 * @file
 * Fig. 21 -- threshold adaptation schemes: AIMD (the paper's pick)
 * against MIAD, AIAD, and MIMD.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig21_adapt_schemes, "Fig. 21", "R_thres adaptation schemes",
             "AIMD best; MIAD/MIMD poor (aggressive increase "
             "suppresses useful compressions)")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const SuiteResult base = runSuite("base", baselineConfig, apps);

    TextTable table;
    table.setHeader({"scheme", "mean speedup vs baseline"});
    for (AdaptScheme scheme : {AdaptScheme::Aimd, AdaptScheme::Miad,
                               AdaptScheme::Aiad, AdaptScheme::Mimd}) {
        const SuiteResult suite = runSuite(
            adaptSchemeName(scheme), [scheme](const std::string &app) {
                SimConfig cfg = accKaguraConfig(app);
                cfg.kagura.scheme = scheme;
                return cfg;
            },
            apps);
        std::string label = adaptSchemeName(scheme);
        if (scheme == AdaptScheme::Aimd)
            label += " (*)";
        table.addRow(
            {label, TextTable::pct(meanSpeedupPct(suite, base))});
    }
    table.print();
    std::printf("\nExpected shape: AIMD at or near the top; the "
                "multiplicative-increase schemes trail.\n");
    return 0;
}
