/**
 * @file
 * Fig. 3 -- the analytic break-even model of Section III: the minimum
 * cache-hit-rate improvement (Delta R_hit, Inequality 4) needed for
 * compression to pay off, as a function of the combined compression/
 * decompression cost and the miss penalty, for three (a, e, f)
 * operating points.
 *
 *   Delta R_hit > ((a + e) * E_decomp + f * E_comp) / E_miss
 */

#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

namespace
{

double
minDeltaRhit(double a, double e, double f, double e_comp, double e_decomp,
             double e_miss)
{
    return ((a + e) * e_decomp + f * e_comp) / e_miss;
}

} // namespace

KAGURA_BENCH(fig03_delta_rhit_model, "Fig. 3",
             "Minimum Delta R_hit for net energy benefit",
             "threshold falls as a/e/f fall, rises with "
             "(E_comp+E_decomp)/E_miss")
{
    struct Point
    {
        double a, e, f;
    };
    const Point points[] = {{0.75, 0.5, 0.5}, {0.5, 0.25, 0.25},
                            {0.25, 0.1, 0.1}};

    // Sweep the combined compress+decompress cost (pJ) and the miss
    // penalty (pJ); BDI's split is ~85% compress / 15% decompress.
    const double combined_costs[] = {2.0, 4.49, 8.0, 16.0};
    const double miss_penalties[] = {70.0, 140.0, 280.0};

    for (const Point &p : points) {
        std::printf("\nSubplot a=%.2f e=%.2f f=%.2f\n", p.a, p.e, p.f);
        TextTable table;
        std::vector<std::string> header = {"E_comp+E_decomp (pJ)"};
        for (double miss : miss_penalties)
            header.push_back("E_miss=" + TextTable::num(miss, 0) + "pJ");
        table.setHeader(header);
        for (double combined : combined_costs) {
            const double e_comp = combined * 0.855;
            const double e_decomp = combined * 0.145;
            std::vector<std::string> row = {TextTable::num(combined, 2)};
            for (double miss : miss_penalties)
                row.push_back(TextTable::num(
                    minDeltaRhit(p.a, p.e, p.f, e_comp, e_decomp, miss) *
                        100.0,
                    3) + "%");
            table.addRow(row);
        }
        table.print();
    }

    std::printf("\nTakeaway (Section III): compression benefits the EHS "
                "iff it improves the hit rate by at least the printed "
                "threshold; the Table I point (4.49 pJ combined, ~140 pJ "
                "miss) sits well under 2%% for all operating points.\n");
    return 0;
}
