/**
 * @file
 * Fig. 17 -- Kagura's benefit vs arithmetic intensity: six apps
 * spanning memory-bound (jpegd/jpeg) to compute-bound (patricia/
 * strings); the improvement should fall as intensity rises.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"

using namespace kagura;

KAGURA_BENCH(fig17_arith_intensity,
             "Fig. 17", "Speedup vs arithmetic intensity",
             "Kagura's improvement is inversely related to "
             "arithmetic intensity")
{
    const std::vector<std::string> &apps = intensityStudyNames();
    const SuiteResult base = runSuite("baseline", baselineConfig, apps);
    const SuiteResult kagura =
        runSuite("ACC+Kagura", accKaguraConfig, apps);

    struct Row
    {
        std::string app;
        double intensity;
        double speedup;
    };
    std::vector<Row> rows;
    for (const std::string &app : apps) {
        rows.push_back({app, cachedWorkload(app).arithmeticIntensity(),
                        speedupPct(kagura.forApp(app), base.forApp(app))});
    }
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return a.intensity < b.intensity;
    });

    TextTable table;
    table.setHeader({"app", "arith intensity", "ACC+Kagura speedup"});
    for (const Row &row : rows)
        table.addRow({row.app, TextTable::num(row.intensity, 2),
                      TextTable::pct(row.speedup)});
    table.print();

    // Rank correlation between intensity and speedup (should be
    // negative).
    double correlation = 0.0;
    {
        double mean_i = 0.0, mean_s = 0.0;
        for (const Row &r : rows) {
            mean_i += r.intensity;
            mean_s += r.speedup;
        }
        mean_i /= rows.size();
        mean_s /= rows.size();
        double num = 0.0, di = 0.0, ds = 0.0;
        for (const Row &r : rows) {
            num += (r.intensity - mean_i) * (r.speedup - mean_s);
            di += (r.intensity - mean_i) * (r.intensity - mean_i);
            ds += (r.speedup - mean_s) * (r.speedup - mean_s);
        }
        correlation = (di > 0 && ds > 0) ? num / std::sqrt(di * ds) : 0.0;
    }
    std::printf("\nPearson correlation (intensity vs speedup): %.3f "
                "(paper shape: clearly negative)\n", correlation);
    return 0;
}
