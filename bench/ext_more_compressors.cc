/**
 * @file
 * Extension study (not a paper figure): the Fig. 23 algorithm sweep
 * extended with the two Section IX related-work algorithms we also
 * implement -- Bit-Plane Compression [91] and CC-style Frequent Value
 * Compression [171].
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(ext_more_compressors,
             "Ext. Sec. IX", "Extended compression algorithms",
             "(repository extension; adds BPC and FVC to the "
             "Fig. 23 sweep)")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const SuiteResult base = runSuite("base", baselineConfig, apps);

    TextTable table;
    table.setHeader({"algorithm", "+ACC", "+ACC+Kagura"});
    for (CompressorKind kind :
         {CompressorKind::Bdi, CompressorKind::Fpc, CompressorKind::CPack,
          CompressorKind::Dzc, CompressorKind::Bpc,
          CompressorKind::Fvc}) {
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
    return 0;
}
