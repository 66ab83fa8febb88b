/**
 * @file
 * Fig. 15 -- ICache/DCache miss rates for the baseline, ACC, and
 * ACC+Kagura across the suite.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig15_miss_rates, "Fig. 15", "Cache miss rates",
             "ACC: -1.45% I / -2.29% D (absolute); ACC+Kagura: "
             "-2.71% I / -3.24% D")
{
    const SuiteResult base = runSuite("baseline", baselineConfig);
    const SuiteResult acc = runSuite("ACC", accConfig);
    const SuiteResult kagura = runSuite("ACC+Kagura", accKaguraConfig);

    TextTable table;
    table.setHeader({"app", "I base", "I ACC", "I +Kagura", "D base",
                     "D ACC", "D +Kagura"});
    double di_acc = 0.0, di_kag = 0.0, dd_acc = 0.0, dd_kag = 0.0;
    for (const AppResult &entry : base.apps) {
        const SimResult &b = entry.primary();
        const SimResult &a = acc.forApp(entry.app).primary();
        const SimResult &k = kagura.forApp(entry.app).primary();
        auto pct = [](double rate) {
            return TextTable::num(rate * 100.0, 2) + "%";
        };
        table.addRow({entry.app, pct(b.icache.missRate()),
                      pct(a.icache.missRate()), pct(k.icache.missRate()),
                      pct(b.dcache.missRate()), pct(a.dcache.missRate()),
                      pct(k.dcache.missRate())});
        di_acc += (a.icache.missRate() - b.icache.missRate()) * 100.0;
        di_kag += (k.icache.missRate() - b.icache.missRate()) * 100.0;
        dd_acc += (a.dcache.missRate() - b.dcache.missRate()) * 100.0;
        dd_kag += (k.dcache.missRate() - b.dcache.missRate()) * 100.0;
    }
    table.print();

    const double n = static_cast<double>(base.apps.size());
    std::printf("\nMean absolute miss-rate change vs baseline:\n"
                "  ICache: ACC %+0.3f pts, ACC+Kagura %+0.3f pts\n"
                "  DCache: ACC %+0.3f pts, ACC+Kagura %+0.3f pts\n",
                di_acc / n, di_kag / n, dd_acc / n, dd_kag / n);
    std::printf("\nExpected shape: compression reduces DCache miss "
                "rates where data compresses; Kagura never increases "
                "them much beyond ACC (most averted compressions were "
                "useless).\n");
    return 0;
}
