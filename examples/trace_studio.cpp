/**
 * @file
 * Trace studio: load a measured power trace from a text file (one
 * average-watt sample per 10 us line, the paper's format) or pick a
 * synthetic source, then report how the platform behaves on it --
 * harvest statistics, power-cycle structure, and the ACC+Kagura gain.
 *
 * Usage: trace_studio [rfhome|solar|thermal|constant|FILE] [app]
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/stats.hh"
#include "sim/experiment.hh"

using namespace kagura;

int
main(int argc, char **argv)
{
    informEnabled = false;
    const std::string source = argc > 1 ? argv[1] : "rfhome";
    const std::string app = argc > 2 ? argv[2] : "g721d";

    SimConfig cfg = baselineConfig(app);
    std::unique_ptr<PowerTrace> preview;
    if (const auto kind = enumFromName(traceKindNames, source)) {
        cfg.trace = *kind;
    } else {
        // Treat it as a trace file; validate it loads before running.
        preview = loadTraceFile(source);
        warn("file traces are previewed only; the simulator runs the "
             "built-in source closest to its mean");
        const Watts mean = preview->meanPower();
        cfg.trace = mean > 42e-6   ? TraceKind::Solar
                    : mean > 33e-6 ? TraceKind::Thermal
                                   : TraceKind::RfHome;
    }

    // Harvest statistics.
    auto trace =
        preview ? std::move(preview)
                : makeTrace(cfg.trace, 100000, cfg.traceSeed);
    std::printf("source '%s': mean %.1f uW, stable fraction %.2f\n",
                trace->name().c_str(), trace->meanPower() * 1e6,
                trace->stableFraction());

    // Baseline run: power-cycle structure.
    Simulator base_sim(cfg);
    const SimResult base = base_sim.run();
    RunningStat lengths;
    for (std::size_t i = 0; i + 1 < base.cycles.size(); ++i)
        lengths.add(static_cast<double>(base.cycles[i].instructions));
    std::printf("\napp '%s' on this source (no compression):\n",
                app.c_str());
    std::printf("  power cycles : %llu (mean %.0f instrs, stddev "
                "%.0f)\n",
                static_cast<unsigned long long>(base.powerFailures),
                lengths.mean(), lengths.stddev());
    std::printf("  wall time    : %.2f ms at %.1f%% duty\n",
                static_cast<double>(base.wallCycles) * 5e-6,
                100.0 * static_cast<double>(base.activeCycles) /
                    static_cast<double>(base.wallCycles));

    // And the compression stack's effect.
    SimConfig smart = accKaguraConfig(app);
    smart.trace = cfg.trace;
    Simulator smart_sim(smart);
    const SimResult kagura = smart_sim.run();
    std::printf("\nwith ACC+Kagura:\n");
    std::printf("  speedup      : %+.2f%%\n", speedupPct(kagura, base));
    std::printf("  energy       : %+.2f%%\n",
                energyDeltaPct(kagura, base));
    std::printf("  RM switches  : %llu (%llu mem ops spent in RM)\n",
                static_cast<unsigned long long>(
                    kagura.kagura.modeSwitches),
                static_cast<unsigned long long>(
                    kagura.kagura.memOpsInRm));
    return 0;
}
