/**
 * @file
 * Fig. 18 -- compression operations eliminated by Kagura relative to
 * plain ACC, per application.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig18_compression_reduction,
             "Fig. 18", "Compression reduction ratio by Kagura",
             "~9.85% average, >40% for g721d/g721e")
{
    const SuiteResult acc = runSuite("ACC", accConfig);
    const SuiteResult kagura = runSuite("ACC+Kagura", accKaguraConfig);

    TextTable table;
    table.setHeader({"app", "ACC compressions", "Kagura compressions",
                     "reduction"});
    BarChart chart("Fig. 18: compression reduction by Kagura", "%");
    double sum = 0.0;
    unsigned counted = 0;
    for (const AppResult &entry : acc.apps) {
        // Sum across seeds for a stable ratio.
        std::uint64_t a = 0, k = 0;
        for (const SimResult &r : entry.runs)
            a += r.compressions();
        for (const SimResult &r : kagura.forApp(entry.app).runs)
            k += r.compressions();
        const double reduction =
            a ? (1.0 - static_cast<double>(k) / static_cast<double>(a)) *
                    100.0
              : 0.0;
        table.addRow({entry.app, std::to_string(a), std::to_string(k),
                      TextTable::pct(reduction)});
        chart.add(entry.app, "", reduction);
        if (a > 0) {
            sum += reduction;
            ++counted;
        }
    }
    table.addRow({"AVERAGE", "", "",
                  TextTable::pct(counted ? sum / counted : 0.0)});
    table.print();
    chart.print();
    std::printf("\nExpected shape: positive reductions nearly "
                "everywhere; large cuts where ACC compresses blocks "
                "that die unused at power failures.\n");
    return 0;
}
