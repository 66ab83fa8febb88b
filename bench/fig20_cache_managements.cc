/**
 * @file
 * Fig. 20 -- Kagura combined with other intermittence-aware cache
 * managements: EDBP dead-block prediction and IPEX prefetching, with
 * and without ACC+Kagura on top, all vs the plain baseline.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig20_cache_managements,
             "Fig. 20", "Kagura with other cache managements",
             "EDBP +5.32% -> +12.14% with ACC+Kagura; IPEX "
             "+12.73% -> +18.37%")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const SuiteResult base = runSuite("base", baselineConfig, apps);

    struct Variant
    {
        const char *label;
        bool decay;
        bool prefetch;
        bool kagura;
    };
    const Variant variants[] = {
        {"EDBP", true, false, false},
        {"EDBP+ACC+Kagura", true, false, true},
        {"IPEX", false, true, false},
        {"IPEX+ACC+Kagura", false, true, true},
    };

    TextTable table;
    table.setHeader({"configuration", "mean speedup vs baseline"});
    for (const Variant &v : variants) {
        const SuiteResult suite = runSuite(
            v.label, [&](const std::string &app) {
                SimConfig cfg =
                    v.kagura ? accKaguraConfig(app) : baselineConfig(app);
                cfg.enableDecay = v.decay;
                cfg.enablePrefetch = v.prefetch;
                return cfg;
            },
            apps);
        table.addRow(
            {v.label, TextTable::pct(meanSpeedupPct(suite, base))});
    }
    table.print();
    std::printf("\nExpected shape: each management helps on its own, "
                "and adding ACC+Kagura on top improves it further.\n");
    return 0;
}
