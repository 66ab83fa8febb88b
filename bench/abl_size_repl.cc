/**
 * @file
 * Ablation (not a paper figure): size-aware replacement under
 * intermittence. Sweeps every registered replacement policy across
 * {ACC, ACC+Kagura} on each EHS design (NVSRAMCache, NvMR,
 * SweepCache), normalised to the same design without compression.
 *
 * The size-aware OPTgen row is special: its driving run is plain LRU,
 * but the simulator also reports the offline size-aware OPTgen model's
 * attainable hit-rate upper bound. The bench checks the acceptance
 * property that this bound dominates every online policy's demand hit
 * rate on every workload, and prints PASS/FAIL (also emitted as the
 * bench/optgen_dominance_violations headline for CI).
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metrics/sink.hh"
#include "repl/kind.hh"

using namespace kagura;

namespace
{

/** Seed-aggregated demand hit rate (both caches) for one app. */
double
demandHitRate(const AppResult &app)
{
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    for (const SimResult &run : app.runs) {
        hits += run.icache.hits + run.dcache.hits;
        accesses += run.icache.accesses + run.dcache.accesses;
    }
    return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                    : 0.0;
}

/** Seed-aggregated OPTgen model hit rate for one app. */
double
optgenHitRate(const AppResult &app)
{
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    for (const SimResult &run : app.runs) {
        hits += run.replOptHits;
        accesses += run.replOptAccesses;
    }
    return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                    : 0.0;
}

std::string
rate(double r)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f%%", 100.0 * r);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Ablation", "Size-aware replacement x EHS designs",
                  "(repository extension; OPTgen bound must dominate "
                  "every online policy)");

    const std::vector<std::string> &apps = bench::sweepApps();
    const char *stackNames[] = {"+ACC", "+ACC+Kagura"};
    unsigned violations = 0;

    for (EhsKind ehs :
         {EhsKind::NvsramCache, EhsKind::NvMR, EhsKind::SweepCache}) {
        const SuiteResult base = runSuite(
            "base", [&](const std::string &a) {
                SimConfig cfg = baselineConfig(a);
                cfg.ehs = ehs;
                return cfg;
            },
            apps);

        // The dE column is the checkpoint-flush-cost probe: a policy
        // that prefers dirty victims makes JIT checkpointing flush
        // less, and the difference lands in total energy.
        TextTable table;
        table.setHeader({std::string("policy (") + ehsKindName(ehs) +
                             ")",
                         "+ACC", "+ACC+Kagura", "hit% ACC",
                         "hit% Kagura", "dE Kagura"});

        // Per stack: app -> best online hit rate, and the OPTgen
        // bound, for the dominance check after the policy loop.
        std::map<std::string, double> bestOnline[2];
        std::map<std::string, double> optBound[2];

        for (ReplKind policy : replKindNames) {
            const std::string name = replacementPolicyName(policy);
            auto shaped = [policy, ehs](SimConfig cfg) {
                cfg.ehs = ehs;
                cfg.icache.replacement = policy;
                cfg.dcache.replacement = policy;
                return cfg;
            };
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

            double hitRates[2] = {0.0, 0.0};
            for (std::size_t s = 0; s < 2; ++s) {
                std::uint64_t hits = 0;
                std::uint64_t accesses = 0;
                for (const AppResult &entry : stacks[s].apps) {
                    const bool oracle =
                        policy == ReplKind::SizeOptgen;
                    const double r = oracle ? optgenHitRate(entry)
                                            : demandHitRate(entry);
                    if (oracle) {
                        optBound[s][entry.app] = r;
                    } else {
                        double &best = bestOnline[s][entry.app];
                        if (r > best)
                            best = r;
                    }
                    for (const SimResult &run : entry.runs) {
                        hits += oracle ? run.replOptHits
                                       : run.icache.hits +
                                             run.dcache.hits;
                        accesses += oracle
                                        ? run.replOptAccesses
                                        : run.icache.accesses +
                                              run.dcache.accesses;
                    }
                }
                hitRates[s] =
                    accesses ? static_cast<double>(hits) /
                                   static_cast<double>(accesses)
                             : 0.0;
            }

            table.addRow(
                {name, TextTable::pct(meanSpeedupPct(stacks[0], base)),
                 TextTable::pct(meanSpeedupPct(stacks[1], base)),
                 rate(hitRates[0]), rate(hitRates[1]),
                 TextTable::pct(meanEnergyDeltaPct(stacks[1], base))});

            if (metrics::defaultSink()) {
                for (std::size_t s = 0; s < 2; ++s) {
                    const std::string config = std::string(
                        ehsKindName(ehs)) + "/" + name + stackNames[s];
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
                                          hitRates[s],
                                          {{"config", config}});
                }
            }
        }
        table.print();

        // Acceptance property: the offline bound dominates every
        // online policy on every workload and stack.
        for (std::size_t s = 0; s < 2; ++s) {
            for (const auto &entry : bestOnline[s]) {
                const double bound = optBound[s][entry.first];
                if (bound + 1e-9 < entry.second) {
                    ++violations;
                    std::printf("  VIOLATION  %s %s %s: OPTgen %s < "
                                "best online %s\n",
                                ehsKindName(ehs), stackNames[s],
                                entry.first.c_str(),
                                rate(bound).c_str(),
                                rate(entry.second).c_str());
                }
            }
        }
    }

    std::printf("\nOPTgen dominance (bound >= every online policy, "
                "every workload): %s\n",
                violations ? "FAIL" : "PASS");
    if (metrics::defaultSink())
        metrics::emitHeadline("bench/optgen_dominance_violations",
                              static_cast<double>(violations));
    return violations ? 1 : 0;
}
