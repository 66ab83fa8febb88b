/**
 * @file
 * Fig. 16 -- normalised energy breakdown: per application, three bars
 * (baseline, ACC, ACC+Kagura), each split into the six categories of
 * the paper's legend and normalised to the baseline's total.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig16_energy_breakdown, "Fig. 16", "Normalised energy breakdown",
             "ACC compress/decompress overheads 6.88%/3.06%; with "
             "Kagura 4.12%/2.75%; total -4.53% vs baseline")
{
    const SuiteResult base = runSuite("baseline", baselineConfig);
    const SuiteResult acc = runSuite("ACC", accConfig);
    const SuiteResult kagura = runSuite("ACC+Kagura", accKaguraConfig);

    TextTable table;
    std::vector<std::string> header = {"app", "config", "total"};
    for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c)
        header.push_back(
            energyCategoryName(static_cast<EnergyCategory>(c)));
    table.setHeader(header);

    double comp_acc = 0.0, decomp_acc = 0.0;
    double comp_kag = 0.0, decomp_kag = 0.0;
    double total_acc = 0.0, total_kag = 0.0;

    for (const AppResult &entry : base.apps) {
        const double norm = entry.primary().ledger.grandTotal();
        auto emit = [&](const char *label, const SimResult &r) {
            std::vector<std::string> row = {entry.app, label};
            row.push_back(
                TextTable::num(r.ledger.grandTotal() / norm * 100, 1) +
                "%");
            for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c)
                row.push_back(
                    TextTable::num(
                        r.ledger.total(static_cast<EnergyCategory>(c)) /
                            norm * 100,
                        2) +
                    "%");
            table.addRow(row);
        };
        const SimResult &a = acc.forApp(entry.app).primary();
        const SimResult &k = kagura.forApp(entry.app).primary();
        emit("base", entry.primary());
        emit("ACC", a);
        emit("+Kagura", k);

        comp_acc += a.ledger.total(EnergyCategory::Compress) / norm;
        decomp_acc += a.ledger.total(EnergyCategory::Decompress) / norm;
        comp_kag += k.ledger.total(EnergyCategory::Compress) / norm;
        decomp_kag += k.ledger.total(EnergyCategory::Decompress) / norm;
        total_acc += a.ledger.grandTotal() / norm;
        total_kag += k.ledger.grandTotal() / norm;
    }
    table.print();

    const double n = static_cast<double>(base.apps.size());
    std::printf("\nAverages (of baseline total):\n"
                "  ACC:        compress %.2f%%, decompress %.2f%%, "
                "total %.2f%%\n"
                "  ACC+Kagura: compress %.2f%%, decompress %.2f%%, "
                "total %.2f%%\n",
                comp_acc / n * 100, decomp_acc / n * 100,
                total_acc / n * 100, comp_kag / n * 100,
                decomp_kag / n * 100, total_kag / n * 100);
    std::printf("\nExpected shape: ACC adds visible Compress/Decompress "
                "energy; Kagura shrinks both and lowers the total.\n");
    return 0;
}
