/**
 * @file
 * Fig. 13 -- the headline result: per-application speedup of ACC,
 * ACC+Kagura, ideal ACC, and the ideal intermittence-aware compressor
 * (ideal Kagura) over the compressor-free NVSRAMCache baseline (top),
 * and the committed-instructions-per-power-cycle increase (bottom).
 * Also prints the Section VIII-A hardware-overhead arithmetic.
 */

#include <cstdio>

#include "bench_common.hh"
#include "energy/area_model.hh"
#include "kagura/kagura.hh"

using namespace kagura;

KAGURA_BENCH(fig13_main_speedup, "Fig. 13", "Main speedup result",
             "ACC +0.0022%, ACC+Kagura +4.74% (max +17.87%), ideal +6.19%; "
             "instrs/cycle: ACC +0.28%, Kagura +4.57%")
{
    const SuiteResult base = runSuite("baseline", baselineConfig);
    const SuiteResult acc = runSuite("ACC", accConfig);
    const SuiteResult kagura = runSuite("ACC+Kagura", accKaguraConfig);
    // Ideal variants: the reuse-only ideal records phase 1 at infinite
    // energy, the intermittence-aware ideal under the real trace.
    const SuiteResult ideal_acc =
        runSuite("idealACC", accConfig, suiteApps(),
                 runner::SimJob::Kind::IdealUnaware);
    const SuiteResult ideal_kagura =
        runSuite("idealKagura", accKaguraConfig, suiteApps(),
                 runner::SimJob::Kind::IdealAware);

    std::printf("\nTop: speedup over the compressor-free baseline\n");
    bench::printSpeedupTable(base,
                             {acc, kagura, ideal_acc, ideal_kagura});

    // Bottom: committed instructions per power cycle.
    std::printf("\nBottom: committed instructions per power cycle "
                "(increase over baseline)\n");
    TextTable bottom;
    bottom.setHeader({"app", "ACC", "ACC+Kagura"});
    double acc_sum = 0.0, kagura_sum = 0.0;
    for (const AppResult &entry : base.apps) {
        const double b = entry.primary().instructionsPerCycle();
        const double a =
            acc.forApp(entry.app).primary().instructionsPerCycle();
        const double k =
            kagura.forApp(entry.app).primary().instructionsPerCycle();
        const double da = (a / b - 1.0) * 100.0;
        const double dk = (k / b - 1.0) * 100.0;
        bottom.addRow(
            {entry.app, TextTable::pct(da), TextTable::pct(dk)});
        acc_sum += da;
        kagura_sum += dk;
    }
    bottom.addRow({"AVERAGE",
                   TextTable::pct(acc_sum / base.apps.size()),
                   TextTable::pct(kagura_sum / base.apps.size())});
    bottom.print();

    // Section VIII-A hardware overhead, recomputed from the area
    // model rather than quoted.
    const AreaModel area;
    std::printf("\nHardware overhead (Section VIII-A): %u bits = five "
                "32-bit registers + one 2-bit counter\n"
                "  our area model: %.6f mm^2 of a %.3f mm^2 core = "
                "%.2f%%\n"
                "  paper (CACTI/McPAT): 0.000796 mm^2 of 0.538 mm^2 = "
                "0.14%%\n",
                KaguraController::hardwareBits, area.kaguraMm2(),
                area.coreMm2(), area.kaguraOverheadFraction() * 100.0);

    std::printf("\nExpected shape: ACC ~ 0 on average with losses on "
                "jpegd/susans/typeset-class apps; Kagura above ACC with "
                "those losses largely recovered; ideal variants at or "
                "above Kagura.\n");
    return 0;
}
