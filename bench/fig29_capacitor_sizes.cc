/**
 * @file
 * Fig. 29 + Table III -- capacitor-size sensitivity and capacitor
 * leakage share. Larger capacitors give longer power cycles (fewer
 * checkpoints) but leak more; Kagura's edge over ACC peaks where
 * cycles are short enough to strand compressions yet long enough for
 * compression to happen at all.
 */

#include <cstdio>

#include "bench_common.hh"
#include "energy/capacitor.hh"

using namespace kagura;

KAGURA_BENCH(fig29_capacitor_sizes,
             "Fig. 29 / Table III", "Capacitor sizes and leakage",
             "best gain near the default 4.7 uF; leakage share "
             "grows with capacitance (0.01% at 4.7 uF, several "
             "percent at 1 mF)")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    // Table III: capacitor leakage as a share of one app's total
    // energy (leakage power at the operating point times wall time).
    std::printf("\nTable III: capacitor leakage share (crc32 run)\n");
    TextTable leak_table;
    leak_table.setHeader({"capacitance", "leak share of total energy"});
    for (double uf : {1.0, 4.7, 10.0, 47.0, 100.0, 470.0}) {
        SimConfig cfg = baselineConfig("crc32");
        cfg.capacitor.capacitance = uf * 1e-6;
        Simulator sim(cfg);
        const SimResult r = sim.run();
        CapacitorConfig cap_cfg = cfg.capacitor;
        Capacitor cap(cap_cfg);
        const double leak_j = cap.leakagePower() *
                              static_cast<double>(r.wallCycles) * 5e-9;
        leak_table.addRow(
            {TextTable::num(uf, 1) + " uF",
             TextTable::num(
                 leak_j / picoToJoules(r.ledger.grandTotal()) * 100.0,
                 3) +
                 "%"});
    }
    leak_table.print();

    // Fig. 29: speedup sweep.
    std::printf("\nFig. 29: speedups per capacitor size\n");
    TextTable table;
    table.setHeader({"capacitance", "+ACC", "+ACC+Kagura",
                     "Kagura-vs-ACC delta", "failures (crc32)"});
    for (double uf : {1.0, 2.2, 4.7, 10.0, 47.0}) {
        auto shaped = [uf](SimConfig cfg) {
            cfg.capacitor.capacitance = uf * 1e-6;
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
        const double a = meanSpeedupPct(acc, base);
        const double k = meanSpeedupPct(kagura, base);
        std::string label = TextTable::num(uf, 1) + " uF";
        if (uf == 4.7)
            label += " (*)";
        table.addRow({label, TextTable::pct(a), TextTable::pct(k),
                      TextTable::pct(k - a),
                      std::to_string(
                          base.forApp("crc32").primary().powerFailures)});
    }
    table.print();
    std::printf("\nExpected shape: Kagura's edge over ACC peaks around "
                "the default capacitor and shrinks for large buffers "
                "(few outages -> few stranded compressions).\n");
    return 0;
}
