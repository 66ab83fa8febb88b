/**
 * @file
 * Fig. 14 -- power-cycle length distribution per application: the
 * probability density of committed-instruction counts per power
 * cycle. Comparable lengths across cycles are what let Kagura use the
 * previous cycle as a predictor.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stats.hh"

using namespace kagura;

KAGURA_BENCH(fig14_cycle_length_dist,
             "Fig. 14", "Power-cycle length distribution",
             "most cycles of an app have comparable length "
             "(thousands of committed instructions)")
{
    TextTable table;
    table.setHeader({"app", "cycles", "mean instrs", "stddev", "p.d. "
                     "histogram (0..2x mean, 12 bins)"});

    for (const std::string &app : workloadNames()) {
        Simulator sim(baselineConfig(app));
        const SimResult r = sim.run();

        RunningStat lengths;
        for (std::size_t i = 0; i + 1 < r.cycles.size(); ++i)
            lengths.add(static_cast<double>(r.cycles[i].instructions));
        if (lengths.count() < 3)
            continue;

        Histogram hist(0.0, 2.0 * lengths.mean(), 12);
        for (std::size_t i = 0; i + 1 < r.cycles.size(); ++i)
            hist.add(static_cast<double>(r.cycles[i].instructions));

        std::string sketch;
        for (std::size_t b = 0; b < hist.size(); ++b) {
            const double d = hist.density(b);
            sketch += d < 0.01   ? '.'
                      : d < 0.05 ? ':'
                      : d < 0.15 ? 'o'
                      : d < 0.30 ? 'O'
                                 : '#';
        }
        table.addRow({app, std::to_string(lengths.count()),
                      TextTable::num(lengths.mean(), 0),
                      TextTable::num(lengths.stddev(), 0), sketch});
    }
    table.print();
    std::printf("\nExpected shape: density concentrated around the mean "
                "('#'/'O' in the middle bins), i.e. comparable cycle "
                "lengths within each application.\n");
    return 0;
}
