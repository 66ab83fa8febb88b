/**
 * @file
 * Fig. 12 -- program behaviour across neighbouring power cycles: the
 * mean relative difference in committed loads, stores, and CPI between
 * consecutive cycles, plus the fraction of neighbouring pairs whose
 * difference is below 20%. This consistency is the foundation of
 * Kagura's history-based N_remain estimate.
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stats.hh"

using namespace kagura;

KAGURA_BENCH(fig12_cycle_consistency,
             "Fig. 12", "Neighbouring power-cycle consistency",
             "avg diff: load 5.73% store 14.11% CPI 5.26%; "
             "<20%-pairs: load 86.91% store 80.27% CPI 88.48%")
{
    TextTable table;
    table.setHeader({"app", "load diff", "store diff", "CPI diff",
                     "load<20%", "store<20%", "CPI<20%"});

    RunningStat all_load, all_store, all_cpi;
    RunningStat all_load20, all_store20, all_cpi20;

    for (const std::string &app : workloadNames()) {
        Simulator sim(baselineConfig(app));
        const SimResult r = sim.run();

        RunningStat load_diff, store_diff, cpi_diff;
        std::uint64_t load20 = 0, store20 = 0, cpi20 = 0, pairs = 0;
        // Compare completed neighbouring cycles (skip the final
        // partial cycle).
        for (std::size_t i = 0; i + 2 < r.cycles.size(); ++i) {
            const PowerCycleRecord &a = r.cycles[i];
            const PowerCycleRecord &b = r.cycles[i + 1];
            if (a.instructions == 0 || b.instructions == 0)
                continue;
            const double ld = relativeDifference(
                static_cast<double>(a.loads),
                static_cast<double>(b.loads));
            const double st = relativeDifference(
                static_cast<double>(a.stores),
                static_cast<double>(b.stores));
            const double cp = relativeDifference(a.cpi(), b.cpi());
            load_diff.add(ld);
            store_diff.add(st);
            cpi_diff.add(cp);
            load20 += ld < 0.20;
            store20 += st < 0.20;
            cpi20 += cp < 0.20;
            ++pairs;
        }
        if (pairs == 0)
            continue;
        const double l20 = 100.0 * static_cast<double>(load20) /
                           static_cast<double>(pairs);
        const double s20 = 100.0 * static_cast<double>(store20) /
                           static_cast<double>(pairs);
        const double c20 = 100.0 * static_cast<double>(cpi20) /
                           static_cast<double>(pairs);
        table.addRow({app, TextTable::num(load_diff.mean() * 100, 1) + "%",
                      TextTable::num(store_diff.mean() * 100, 1) + "%",
                      TextTable::num(cpi_diff.mean() * 100, 1) + "%",
                      TextTable::num(l20, 1) + "%",
                      TextTable::num(s20, 1) + "%",
                      TextTable::num(c20, 1) + "%"});
        all_load.add(load_diff.mean() * 100);
        all_store.add(store_diff.mean() * 100);
        all_cpi.add(cpi_diff.mean() * 100);
        all_load20.add(l20);
        all_store20.add(s20);
        all_cpi20.add(c20);
    }

    table.addRow({"AVERAGE", TextTable::num(all_load.mean(), 2) + "%",
                  TextTable::num(all_store.mean(), 2) + "%",
                  TextTable::num(all_cpi.mean(), 2) + "%",
                  TextTable::num(all_load20.mean(), 2) + "%",
                  TextTable::num(all_store20.mean(), 2) + "%",
                  TextTable::num(all_cpi20.mean(), 2) + "%"});
    table.print();
    std::printf("\nExpected shape: single-digit load/CPI differences, "
                "larger store differences, and a large majority of "
                "neighbouring pairs below 20%% difference.\n");
    return 0;
}
