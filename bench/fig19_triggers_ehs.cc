/**
 * @file
 * Fig. 19 -- trigger strategies across EHS designs: on NVSRAMCache,
 * NvMR, and SweepCache (the paper's three), plus the TaskBased and
 * SpecPersist recovery models (docs/EHS.md), compare ACC, ACC+Kagura
 * with the memory-based trigger, and ACC+Kagura with the
 * voltage-based trigger. All speedups are normalised to the same
 * design without compression. The voltage trigger needs a
 * three-threshold monitor that every design but NVSRAMCache otherwise
 * avoids, so it degrades the monitor-less designs.
 *
 * The acceptance property is coverage: all five designs must run all
 * three compressed configurations against their own baselines,
 * printed as a PASS/FAIL line (also emitted as the
 * bench/fig19_violations headline) and reflected in the exit code
 * for CI. Each cell's per-app speedups and per-design geomeans land
 * in the kagura.bench/v1 summary when a metrics sink is armed.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metrics/sink.hh"

using namespace kagura;

KAGURA_BENCH(fig19_triggers_ehs,
             "Fig. 19", "Trigger strategies on EHS designs",
             "mem trigger: +4.74/+5.54/+3.15% on NVSRAM/NvMR/"
             "Sweep; vol trigger degrades ACC by -0.23/-2.81% on "
             "the monitor-less designs")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    const EhsKind designs[] = {EhsKind::NvsramCache, EhsKind::NvMR,
                               EhsKind::SweepCache, EhsKind::TaskBased,
                               EhsKind::SpecPersist};
    constexpr unsigned numDesigns = 5;
    constexpr unsigned expectedCells = numDesigns * 3;
    unsigned cellsRun = 0;
    unsigned violations = 0;

    TextTable table;
    table.setHeader({"EHS design", "+ACC", "+ACC+Kagura (mem)",
                     "+ACC+Kagura (vol)"});

    for (EhsKind kind : designs) {
        auto with_ehs = [kind](SimConfig cfg) {
            cfg.ehs = kind;
            return cfg;
        };
        const SuiteResult base = runSuite(
            "base", [&](const std::string &a) {
                return with_ehs(baselineConfig(a));
            },
            apps);
        const SuiteResult acc = runSuite(
            "acc", [&](const std::string &a) {
                return with_ehs(accConfig(a));
            },
            apps);
        const SuiteResult mem = runSuite(
            "mem", [&](const std::string &a) {
                return with_ehs(accKaguraConfig(a));
            },
            apps);
        const SuiteResult vol = runSuite(
            "vol", [&](const std::string &a) {
                SimConfig cfg = with_ehs(accKaguraConfig(a));
                cfg.kagura.trigger = TriggerKind::Voltage;
                return cfg;
            },
            apps);
        table.addRow({ehsKindName(kind),
                      TextTable::pct(meanSpeedupPct(acc, base)),
                      TextTable::pct(meanSpeedupPct(mem, base)),
                      TextTable::pct(meanSpeedupPct(vol, base))});

        const struct
        {
            const char *config;
            const SuiteResult &suite;
        } cells[] = {{"acc", acc}, {"mem", mem}, {"vol", vol}};
        for (const auto &cell : cells) {
            const double geomean =
                bench::speedupGeomean(cell.suite, base);
            // Coverage: the cell must produce a finite normalised
            // ratio for the design to count as exercised.
            if (std::isfinite(geomean) && geomean > 0.0)
                ++cellsRun;
            else {
                ++violations;
                std::printf("  VIOLATION  %s/%s produced no usable "
                            "geomean\n",
                            ehsKindName(kind), cell.config);
            }
            if (metrics::defaultSink()) {
                const std::string config =
                    std::string(ehsKindName(kind)) + "/" + cell.config;
                for (const AppResult &entry : base.apps)
                    bench::emitCell(
                        "bench/speedup_pct", entry.app, config,
                        speedupPct(cell.suite.forApp(entry.app),
                                   entry));
                metrics::emitHeadline("bench/speedup_geomean", geomean,
                                      {{"config", config}});
            }
        }
    }
    table.print();

    if (cellsRun != expectedCells) {
        ++violations;
        std::printf("  VIOLATION  only %u of %u cells ran\n", cellsRun,
                    expectedCells);
    }

    std::printf("\nExpected shape: the memory trigger helps every "
                "design; the voltage trigger roughly matches it on "
                "NVSRAMCache (which already pays for a monitor) but "
                "falls behind on the monitor-less designs due to the "
                "extended-monitor energy. TaskBased and SpecPersist "
                "behave like SweepCache: rollback designs whose "
                "commit boundaries amortise the persist cost.\n");

    std::printf("\nfig19 coverage (%u designs x 3 configurations): "
                "%s\n",
                numDesigns, violations ? "FAIL" : "PASS");
    if (metrics::defaultSink())
        metrics::emitHeadline("bench/fig19_violations",
                              static_cast<double>(violations));
    return violations ? 1 : 0;
}
