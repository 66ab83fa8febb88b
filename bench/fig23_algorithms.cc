/**
 * @file
 * Fig. 23 -- compression algorithms: BDI, FPC, C-Pack, and DZC, each
 * as plain ACC and as ACC+Kagura, vs the compressor-free baseline.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig23_algorithms, "Fig. 23", "Compression algorithms",
             "ACC: 0.0022/1.50/0.99/1.00% for BDI/FPC/C-Pack/DZC; "
             "with Kagura: 4.74/4.40/4.10/2.41%")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const SuiteResult base = runSuite("base", baselineConfig, apps);

    TextTable table;
    table.setHeader({"algorithm", "+ACC", "+ACC+Kagura"});
    for (CompressorKind kind :
         {CompressorKind::Bdi, CompressorKind::Fpc, CompressorKind::CPack,
          CompressorKind::Dzc}) {
        const SuiteResult acc = runSuite(
            "acc", [kind](const std::string &app) {
                SimConfig cfg = accConfig(app);
                cfg.compressor = kind;
                return cfg;
            },
            apps);
        const SuiteResult kagura = runSuite(
            "kagura", [kind](const std::string &app) {
                SimConfig cfg = accKaguraConfig(app);
                cfg.compressor = kind;
                return cfg;
            },
            apps);
        table.addRow({compressorKindName(kind),
                      TextTable::pct(meanSpeedupPct(acc, base)),
                      TextTable::pct(meanSpeedupPct(kagura, base))});
    }
    table.print();
    std::printf("\nExpected shape: Kagura improves on plain ACC for "
                "every algorithm.\n");
    return 0;
}
