/**
 * @file
 * Ablation (not a paper figure): what a shared compressed L2 between
 * the L1s and NVM buys under intermittence. Sweeps four hierarchies
 *
 *   no-L2 | raw L2 | compressed L2 (+ACC) | compressed L2 (+ACC+Kagura)
 *
 * on each EHS design (NVSRAMCache, NvMR, SweepCache), with the L1s at
 * the paper's ACC+Kagura design point throughout, normalised to the
 * no-compression, no-L2 baseline of the same design. The L2 question
 * is sharper under intermittence than in conventional hierarchies:
 * every JIT checkpoint must flush the L2's dirty set too (NVSRAM), or
 * lose it outright (NvMR/SweepCache), so the level's extra capacity
 * fights its extra failure-time cost -- and per-level Kagura gating
 * decides whether L2 compression is worth running at all.
 *
 * Per cell the table reports the speedup over the no-L2 baseline, the
 * L2 demand hit rate, and the L2's writeback traffic to NVM. The
 * acceptance property is liveness of the per-level telemetry: every
 * L2 cell must report L2 accesses, and the compressed-L2 cells must
 * report L2 compressions, printed as a PASS/FAIL line (also emitted
 * as the bench/hierarchy_telemetry_violations headline) and reflected
 * in the exit code for CI. The closing verdict line answers the
 * issue's question directly: does compressed-L2+Kagura beat no-L2 on
 * each EHS design?
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metrics/sink.hh"

using namespace kagura;

namespace
{

/** The four hierarchy variants, in table-column order. */
enum class L2Variant
{
    None,
    Raw,
    Compressed,
    CompressedKagura,
};

constexpr L2Variant variants[] = {
    L2Variant::None,
    L2Variant::Raw,
    L2Variant::Compressed,
    L2Variant::CompressedKagura,
};

const char *
variantName(L2Variant v)
{
    switch (v) {
      case L2Variant::None:
        return "no-L2";
      case L2Variant::Raw:
        return "raw-L2";
      case L2Variant::Compressed:
        return "L2+ACC";
      case L2Variant::CompressedKagura:
        return "L2+ACC+Kagura";
    }
    return "?";
}

SimConfig
withL2(SimConfig cfg, L2Variant v)
{
    if (v == L2Variant::None)
        return cfg;
    cfg.enableL2 = true;
    if (v == L2Variant::Compressed || v == L2Variant::CompressedKagura)
        cfg.l2Governor = GovernorKind::Acc;
    if (v == L2Variant::CompressedKagura)
        cfg.l2Kagura = true;
    return cfg;
}

/** Suite-aggregated L2 counters (all apps, all seeds). */
CacheStats
suiteL2Stats(const SuiteResult &suite)
{
    CacheStats total;
    for (const AppResult &app : suite.apps) {
        for (const SimResult &run : app.runs) {
            total.accesses += run.l2cache.accesses;
            total.hits += run.l2cache.hits;
            total.misses += run.l2cache.misses;
            total.evictions += run.l2cache.evictions;
            total.writebacks += run.l2cache.writebacks;
            total.compressions += run.l2cache.compressions;
            total.compactions += run.l2cache.compactions;
            total.decompressions += run.l2cache.decompressions;
        }
    }
    return total;
}

std::string
rate(double r)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * r);
    return buf;
}

std::string
count(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

KAGURA_BENCH(abl_hierarchy, "Ablation",
             "Memory hierarchies: shared L2 x EHS designs",
             "(repository extension; per-level telemetry must be "
             "live)")
{
    const std::vector<std::string> &apps = bench::sweepApps();
    unsigned cellsRun = 0;
    unsigned violations = 0;
    bool kaguraWins[3] = {false, false, false};
    double kaguraGeomean[3] = {0.0, 0.0, 0.0};
    const EhsKind designs[] = {EhsKind::NvsramCache, EhsKind::NvMR,
                               EhsKind::SweepCache};

    for (unsigned d = 0; d < 3; ++d) {
        const EhsKind ehs = designs[d];
        TextTable table;
        table.setHeader({std::string("hierarchy (") + ehsKindName(ehs) +
                             ")",
                         "speedup", "L2 hit%", "L2 writebacks"});

        // The per-design base: no compression anywhere, no L2.
        const SuiteResult base = runSuite(
            "base",
            [ehs](const std::string &a) {
                SimConfig cfg = baselineConfig(a);
                cfg.ehs = ehs;
                return cfg;
            },
            apps);

        for (L2Variant v : variants) {
            const SuiteResult cell = runSuite(
                variantName(v),
                [ehs, v](const std::string &a) {
                    SimConfig cfg = withL2(accKaguraConfig(a), v);
                    cfg.ehs = ehs;
                    return cfg;
                },
                apps);
            ++cellsRun;

            const CacheStats l2 = suiteL2Stats(cell);
            const double l2_hit_rate =
                l2.accesses ? static_cast<double>(l2.hits) /
                                  static_cast<double>(l2.accesses)
                            : 0.0;
            const double geomean = bench::speedupGeomean(cell, base);
            table.addRow(
                {variantName(v),
                 TextTable::pct(meanSpeedupPct(cell, base)),
                 v == L2Variant::None ? "-" : rate(l2_hit_rate),
                 v == L2Variant::None ? "-" : count(l2.writebacks)});

            // Liveness: the per-level plumbing must actually carry
            // traffic, or the refactor silently short-circuited it.
            if (v != L2Variant::None && !l2.accesses) {
                ++violations;
                std::printf("  VIOLATION  %s/%s reported zero L2 "
                            "accesses\n",
                            ehsKindName(ehs), variantName(v));
            }
            if ((v == L2Variant::Compressed ||
                 v == L2Variant::CompressedKagura) &&
                !l2.compressions) {
                ++violations;
                std::printf("  VIOLATION  %s/%s reported zero L2 "
                            "compressions\n",
                            ehsKindName(ehs), variantName(v));
            }
            if (v == L2Variant::CompressedKagura) {
                kaguraGeomean[d] = geomean;
                kaguraWins[d] = geomean > 1.0;
            }

            if (metrics::defaultSink()) {
                const std::string config =
                    std::string(ehsKindName(ehs)) + "/" +
                    variantName(v);
                for (const AppResult &entry : base.apps)
                    bench::emitCell(
                        "bench/speedup_pct", entry.app, config,
                        speedupPct(cell.forApp(entry.app), entry));
                metrics::emitHeadline("bench/speedup_geomean", geomean,
                                      {{"config", config}});
                if (v != L2Variant::None) {
                    metrics::emitHeadline("bench/l2_hit_rate",
                                          l2_hit_rate,
                                          {{"config", config}});
                    metrics::emitHeadline(
                        "bench/l2_writebacks",
                        static_cast<double>(l2.writebacks),
                        {{"config", config}});
                }
            }
        }
        table.print();
    }

    if (cellsRun != 12) {
        ++violations;
        std::printf("  VIOLATION  only %u of 12 cells ran\n", cellsRun);
    }

    // The issue's question, answered per design.
    std::printf("\ncompressed-L2+Kagura vs no-L2:\n");
    for (unsigned d = 0; d < 3; ++d) {
        std::printf("  %-12s %s (geomean %.4fx)\n",
                    ehsKindName(designs[d]),
                    kaguraWins[d] ? "WINS" : "LOSES",
                    kaguraGeomean[d]);
    }

    std::printf("\nhierarchy telemetry (12 cells, L2 accesses, L2 "
                "compressions): %s\n",
                violations ? "FAIL" : "PASS");
    if (metrics::defaultSink())
        metrics::emitHeadline("bench/hierarchy_telemetry_violations",
                              static_cast<double>(violations));
    return violations ? 1 : 0;
}
