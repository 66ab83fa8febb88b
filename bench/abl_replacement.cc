/**
 * @file
 * Ablation (not a paper figure): replacement-policy sensitivity of the
 * full ACC+Kagura stack. The paper fixes LRU (Table I); this shows the
 * design does not depend on it. Iterates every policy registered in
 * src/repl -- the classic trio plus the size-aware additions (CAMP,
 * CRRIP) and the offline size-aware OPTgen oracle -- and emits the
 * per-policy speedup means/geomeans as kagura.bench/v1 headline
 * records so tools/bench_diff can track the replacement axis across
 * PRs.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metrics/sink.hh"
#include "repl/kind.hh"

using namespace kagura;

KAGURA_BENCH(abl_replacement, "Ablation", "Replacement policies",
             "(repository extension; the paper fixes LRU)")
{
    const std::vector<std::string> &apps = bench::sweepApps();

    TextTable table;
    table.setHeader({"policy", "+ACC", "+ACC+Kagura"});
    for (ReplKind policy : replKindNames) {
        auto shaped = [policy](SimConfig cfg) {
            cfg.icache.replacement = policy;
            cfg.dcache.replacement = policy;
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
        const std::string name = replacementPolicyName(policy);
        table.addRow({name,
                      TextTable::pct(meanSpeedupPct(acc, base)),
                      TextTable::pct(meanSpeedupPct(kagura, base))});

        if (!metrics::defaultSink())
            continue;
        const SuiteResult *stacks[] = {&acc, &kagura};
        const char *suffixes[] = {"+ACC", "+ACC+Kagura"};
        for (std::size_t s = 0; s < 2; ++s) {
            const std::string config = name + suffixes[s];
            for (const AppResult &entry : base.apps)
                bench::emitCell(
                    "bench/speedup_pct", entry.app, config,
                    speedupPct(stacks[s]->forApp(entry.app), entry));
            metrics::emitHeadline("bench/speedup_avg_pct",
                                  meanSpeedupPct(*stacks[s], base),
                                  {{"config", config}});
            metrics::emitHeadline("bench/speedup_geomean",
                                  bench::speedupGeomean(*stacks[s], base),
                                  {{"config", config}});
        }
    }
    table.print();
    return 0;
}
