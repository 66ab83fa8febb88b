/**
 * @file
 * Ablation (not a paper figure): compressed-tag architectures under
 * intermittence. Sweeps the three src/tags layouts (baseline
 * one-tag-per-line, DISH-style superblock, Touche-style signature)
 * across {ACC, ACC+Kagura} on each EHS design (NVSRAMCache, NvMR,
 * SweepCache), normalised to the same design + layout without
 * compression -- the fig13-style question "does Kagura's benefit
 * survive a realistic tag budget?".
 *
 * Per cell the table reports the speedup, the demand hit rate, and
 * the layout's effective capacity (mean resident blocks per set at
 * fill time, from the occupancy telemetry; the baseline layout is the
 * free-tags idealization and reports "-"). The superblock layout gets
 * an extra row pairing it with the DISH-aware replacement policy
 * (lone-co-resident-first eviction), which is the policy's natural
 * habitat. A second, paper-style table sweeps the signature width of
 * the Touche-style layout: narrower signatures shrink the tag array
 * but alias more, and every alias costs a full-tag re-check, so the
 * table reports the false-positive rate against the re-check count
 * per width.
 *
 * The acceptance property is that the new layouts actually exercise
 * their machinery: the superblock sweep must report tag compactions,
 * the signature sweep must report false positives, the DISH rows must
 * report lone-first evictions, and narrower signatures must not
 * alias *less* than wider ones -- printed as a PASS/FAIL line (also
 * emitted as the bench/tag_telemetry_violations headline) and
 * reflected in the exit code for CI.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metrics/sink.hh"
#include "tags/kind.hh"

using namespace kagura;

namespace
{

/** Seed-aggregated demand hit rate (both caches) for one suite. */
double
suiteHitRate(const SuiteResult &suite)
{
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    for (const AppResult &app : suite.apps) {
        for (const SimResult &run : app.runs) {
            hits += run.icache.hits + run.dcache.hits;
            accesses += run.icache.accesses + run.dcache.accesses;
        }
    }
    return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                    : 0.0;
}

/** Suite-aggregated tag telemetry (both caches, all seeds). */
tags::TagLayoutStats
suiteTagStats(const SuiteResult &suite)
{
    tags::TagLayoutStats total;
    for (const AppResult &app : suite.apps) {
        for (const SimResult &run : app.runs) {
            total.add(run.icacheTags);
            total.add(run.dcacheTags);
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
capacity(const tags::TagLayoutStats &stats)
{
    if (!stats.occupancySamples)
        return "-"; // baseline: the free-tags idealization
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f blk/set",
                  stats.meanResidentBlocks());
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Ablation", "Compressed-tag layouts x EHS designs",
                  "(repository extension; superblock/signature "
                  "telemetry must be live)");

    const std::vector<std::string> &apps = bench::sweepApps();
    const char *stackNames[] = {"+ACC", "+ACC+Kagura"};
    std::uint64_t sbCompactions = 0;
    std::uint64_t sigFalsePositives = 0;
    std::uint64_t dishEvictions = 0;
    unsigned cellsRun = 0;

    for (EhsKind ehs :
         {EhsKind::NvsramCache, EhsKind::NvMR, EhsKind::SweepCache}) {
        TextTable table;
        table.setHeader({std::string("layout (") + ehsKindName(ehs) +
                             ")",
                         "+ACC", "+ACC+Kagura", "hit% ACC",
                         "hit% Kagura", "eff. capacity"});

        // One row per layout, plus the superblock layout paired with
        // the DISH-aware policy (its natural habitat: co-residency is
        // what the policy reads).
        struct RowSpec
        {
            TagLayoutKind layout;
            ReplKind repl;
            std::string label;
        };
        std::vector<RowSpec> rows;
        for (TagLayoutKind layout : tagLayoutNames)
            rows.push_back({layout, ReplKind::Lru, tagLayoutName(layout)});
        rows.push_back({TagLayoutKind::Superblock, ReplKind::Dish,
                        std::string(tagLayoutName(
                            TagLayoutKind::Superblock)) +
                            "+DISH"});

        for (const RowSpec &row : rows) {
            auto shaped = [&row, ehs](SimConfig cfg) {
                cfg.ehs = ehs;
                cfg.icache.tagLayout = row.layout;
                cfg.dcache.tagLayout = row.layout;
                cfg.icache.replacement = row.repl;
                cfg.dcache.replacement = row.repl;
                return cfg;
            };
            // Per-layout no-compression base: isolates what the
            // compression stack buys *under this tag budget*.
            const SuiteResult base = runSuite(
                "base",
                [&](const std::string &a) {
                    return shaped(baselineConfig(a));
                },
                apps);
            const SuiteResult stacks[2] = {
                runSuite(
                    "acc",
                    [&](const std::string &a) {
                        return shaped(accConfig(a));
                    },
                    apps),
                runSuite(
                    "kagura",
                    [&](const std::string &a) {
                        return shaped(accKaguraConfig(a));
                    },
                    apps),
            };
            cellsRun += 2;

            const tags::TagLayoutStats kaguraTags =
                suiteTagStats(stacks[1]);
            tags::TagLayoutStats sweepTags = kaguraTags;
            sweepTags.add(suiteTagStats(stacks[0]));
            sbCompactions += sweepTags.tagCompactions;
            sigFalsePositives += sweepTags.sigFalsePositives;
            if (row.repl == ReplKind::Dish) {
                for (std::size_t s = 0; s < 2; ++s) {
                    for (const AppResult &app : stacks[s].apps) {
                        for (const SimResult &run : app.runs)
                            dishEvictions += run.icache.evictions +
                                             run.dcache.evictions;
                    }
                }
            }

            table.addRow(
                {row.label,
                 TextTable::pct(meanSpeedupPct(stacks[0], base)),
                 TextTable::pct(meanSpeedupPct(stacks[1], base)),
                 rate(suiteHitRate(stacks[0])),
                 rate(suiteHitRate(stacks[1])),
                 capacity(kaguraTags)});

            if (metrics::defaultSink()) {
                for (std::size_t s = 0; s < 2; ++s) {
                    const std::string config =
                        std::string(ehsKindName(ehs)) + "/" +
                        row.label + stackNames[s];
                    for (const AppResult &entry : base.apps)
                        bench::emitCell("bench/speedup_pct", entry.app,
                                        config,
                                        speedupPct(stacks[s].forApp(
                                                       entry.app),
                                                   entry));
                    metrics::emitHeadline(
                        "bench/speedup_geomean",
                        bench::speedupGeomean(stacks[s], base),
                        {{"config", config}});
                    metrics::emitHeadline("bench/hit_rate",
                                          suiteHitRate(stacks[s]),
                                          {{"config", config}});
                }
                const std::string config =
                    std::string(ehsKindName(ehs)) + "/" + row.label;
                metrics::emitHeadline(
                    "bench/effective_capacity_blocks",
                    kaguraTags.meanResidentBlocks(),
                    {{"config", config}});
                metrics::emitHeadline(
                    "bench/tag_compactions",
                    static_cast<double>(sweepTags.tagCompactions),
                    {{"config", config}});
                metrics::emitHeadline(
                    "bench/sig_false_positives",
                    static_cast<double>(sweepTags.sigFalsePositives),
                    {{"config", config}});
            }
        }
        table.print();
    }

    // --- signature width vs re-check cost (Touche's sizing axis) ----
    // Narrower signatures shrink the tag array linearly but alias
    // combinatorially: every alias is a full-tag re-check that found
    // nothing (sigFalsePositives of sigRechecks). One EHS design
    // suffices -- the aliasing is a property of the layout, not the
    // persistence scheme.
    const unsigned sigWidths[] = {4, 6, 8, 10, 12};
    TextTable sigTable;
    sigTable.setHeader({"sig bits (NVSRAMCache, +ACC+Kagura)",
                        "speedup", "hit%", "re-checks",
                        "false positives", "fp rate"});
    std::uint64_t prevFalsePositives = 0;
    bool fpMonotone = true;
    unsigned sigCellsRun = 0;
    for (unsigned bits_index = 0; bits_index < 5; ++bits_index) {
        const unsigned bits = sigWidths[4 - bits_index]; // wide -> narrow
        auto shaped = [bits](SimConfig cfg) {
            cfg.ehs = EhsKind::NvsramCache;
            cfg.icache.tagLayout = TagLayoutKind::Signature;
            cfg.dcache.tagLayout = TagLayoutKind::Signature;
            cfg.icache.sigBits = bits;
            cfg.dcache.sigBits = bits;
            return cfg;
        };
        const SuiteResult base = runSuite(
            "base",
            [&](const std::string &a) {
                return shaped(baselineConfig(a));
            },
            apps);
        const SuiteResult stack = runSuite(
            "kagura",
            [&](const std::string &a) {
                return shaped(accKaguraConfig(a));
            },
            apps);
        ++sigCellsRun;

        tags::TagLayoutStats sweepTags = suiteTagStats(stack);
        sweepTags.add(suiteTagStats(base));
        const double fp_rate =
            sweepTags.sigRechecks
                ? static_cast<double>(sweepTags.sigFalsePositives) /
                      static_cast<double>(sweepTags.sigRechecks)
                : 0.0;
        char bits_label[16];
        std::snprintf(bits_label, sizeof(bits_label), "%u", bits);
        char count_buf[2][32];
        std::snprintf(count_buf[0], sizeof(count_buf[0]), "%llu",
                      static_cast<unsigned long long>(
                          sweepTags.sigRechecks));
        std::snprintf(count_buf[1], sizeof(count_buf[1]), "%llu",
                      static_cast<unsigned long long>(
                          sweepTags.sigFalsePositives));
        sigTable.addRow({bits_label,
                         TextTable::pct(meanSpeedupPct(stack, base)),
                         rate(suiteHitRate(stack)), count_buf[0],
                         count_buf[1], rate(fp_rate)});
        if (metrics::defaultSink()) {
            const std::string config =
                std::string("sig_bits=") + bits_label;
            metrics::emitHeadline(
                "bench/sig_width_false_positive_rate", fp_rate,
                {{"config", config}});
            metrics::emitHeadline(
                "bench/sig_width_rechecks",
                static_cast<double>(sweepTags.sigRechecks),
                {{"config", config}});
        }
        // Widths are swept wide -> narrow, so false positives must
        // not decrease along the sweep.
        if (bits_index > 0 &&
            sweepTags.sigFalsePositives < prevFalsePositives)
            fpMonotone = false;
        prevFalsePositives = sweepTags.sigFalsePositives;
    }
    std::printf("\nSignature width vs false-positive re-check cost\n");
    sigTable.print();

    // Acceptance: all cells completed and the non-baseline layouts
    // produced their characteristic telemetry.
    unsigned violations = 0;
    if (cellsRun != 24) {
        ++violations;
        std::printf("  VIOLATION  only %u of 24 cells ran\n", cellsRun);
    }
    if (sigCellsRun != 5) {
        ++violations;
        std::printf("  VIOLATION  only %u of 5 signature widths ran\n",
                    sigCellsRun);
    }
    if (!sbCompactions) {
        ++violations;
        std::printf("  VIOLATION  superblock sweep reported zero tag "
                    "compactions\n");
    }
    if (!sigFalsePositives) {
        ++violations;
        std::printf("  VIOLATION  signature sweep reported zero false "
                    "positives\n");
    }
    if (!dishEvictions) {
        ++violations;
        std::printf("  VIOLATION  DISH rows reported zero evictions\n");
    }
    if (!fpMonotone) {
        ++violations;
        std::printf("  VIOLATION  narrower signatures aliased less "
                    "than wider ones\n");
    }
    std::printf("\ntag-layout telemetry (24+5 cells, superblock "
                "compactions, signature false positives, DISH "
                "evictions, width monotonicity): %s\n",
                violations ? "FAIL" : "PASS");
    if (metrics::defaultSink())
        metrics::emitHeadline("bench/tag_telemetry_violations",
                              static_cast<double>(violations));
    return violations ? 1 : 0;
}
