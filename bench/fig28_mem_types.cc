/**
 * @file
 * Fig. 28 -- main-memory technology sensitivity: ReRAM, PCM, and
 * STT-RAM miss penalties.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig28_mem_types, "Fig. 28", "Main memory types",
             "promising speedups with all NVMs (4.74% ReRAM, "
             "4.67% PCM, 4.68% STTRAM)")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    TextTable table;
    table.setHeader({"NVM type", "+ACC", "+ACC+Kagura"});
    for (NvmType type :
         {NvmType::ReRam, NvmType::Pcm, NvmType::SttRam}) {
        auto shaped = [type](SimConfig cfg) {
            cfg.nvmType = type;
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
        table.addRow({nvmTypeName(type),
                      TextTable::pct(meanSpeedupPct(acc, base)),
                      TextTable::pct(meanSpeedupPct(kagura, base))});
    }
    table.print();
    return 0;
}
