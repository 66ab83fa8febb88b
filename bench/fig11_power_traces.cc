/**
 * @file
 * Fig. 11 -- characteristics of the ambient power traces: mean power,
 * stable fraction, and a coarse time-series sketch for RFHome, solar,
 * and thermal sources.
 */

#include <cstdio>

#include "bench_common.hh"
#include "energy/power_trace.hh"

using namespace kagura;

KAGURA_BENCH(fig11_power_traces, "Fig. 11", "Ambient power traces",
             "solar/thermal mostly stable; RFHome weak and bursty")
{
    TextTable table;
    table.setHeader({"trace", "mean power (uW)", "min (uW)", "max (uW)",
                     "stable fraction"});

    for (TraceKind kind :
         {TraceKind::RfHome, TraceKind::Solar, TraceKind::Thermal}) {
        auto trace = makeTrace(kind, 100000);
        double min_w = 1e9, max_w = 0.0;
        for (std::uint64_t i = 0; i < trace->length(); ++i) {
            min_w = std::min(min_w, trace->power(i));
            max_w = std::max(max_w, trace->power(i));
        }
        table.addRow({trace->name(),
                      TextTable::num(trace->meanPower() * 1e6, 1),
                      TextTable::num(min_w * 1e6, 1),
                      TextTable::num(max_w * 1e6, 1),
                      TextTable::num(trace->stableFraction(), 3)});
    }
    table.print();

    // Coarse sketch: average power over 64 windows of the first trace
    // second, one row per source.
    std::printf("\nTime-series sketch (10 ms windows, '#' ~ 10 uW):\n");
    for (TraceKind kind :
         {TraceKind::RfHome, TraceKind::Solar, TraceKind::Thermal}) {
        auto trace = makeTrace(kind, 64000);
        std::printf("  %-8s ", traceKindName(kind));
        for (unsigned w = 0; w < 64; ++w) {
            double sum = 0.0;
            for (unsigned i = 0; i < 1000; ++i)
                sum += trace->power(w * 1000 + i);
            const int bars = static_cast<int>(sum / 1000 / 10e-6);
            std::putchar(bars <= 0   ? '.'
                         : bars == 1 ? '_'
                         : bars <= 3 ? '-'
                         : bars <= 6 ? '='
                                     : '#');
        }
        std::putchar('\n');
    }
    return 0;
}
