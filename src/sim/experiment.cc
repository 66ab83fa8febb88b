#include "sim/experiment.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runner/env.hh"
#include "runner/runner.hh"

namespace kagura
{

// Process-wide mutable state: read on the main thread when a suite's
// job list is built, never from runner workers; benches may assign it
// before their sweeps (the KAGURA_REPEATS env is applied once here,
// at static initialisation, so cheap 1-seed smoke sweeps need no
// recompile).
unsigned suiteRepeats = runner::envCount("KAGURA_REPEATS", 5);

std::uint64_t
suiteSeed(unsigned index)
{
    return mixSeeds(0x6b616775, index * 7919 + 1);
}

// Process-wide mutable state, same discipline as suiteRepeats: set by
// the harness before sweeps start, read on the submitting thread only.
static std::vector<std::string> suiteAppsOverride;

const std::vector<std::string> &
suiteApps()
{
    return suiteAppsOverride.empty() ? workloadNames()
                                     : suiteAppsOverride;
}

void
setSuiteApps(std::vector<std::string> apps)
{
    for (const std::string &app : apps) {
        if (!workloadExists(app))
            fatal("unknown workload '%s' in suite selection; %s",
                  app.c_str(), knownWorkloadsSummary().c_str());
    }
    suiteAppsOverride = std::move(apps);
}

const AppResult &
SuiteResult::forApp(const std::string &app) const
{
    for (const AppResult &entry : apps) {
        if (entry.app == app)
            return entry;
    }
    fatal("suite '%s' has no result for app '%s'", label.c_str(),
          app.c_str());
}

SimConfig
baselineConfig(const std::string &workload)
{
    SimConfig cfg;
    cfg.workload = workload;
    return cfg;
}

SimConfig
accConfig(const std::string &workload)
{
    SimConfig cfg = baselineConfig(workload);
    cfg.governor = GovernorKind::Acc;
    cfg.compressor = CompressorKind::Bdi;
    return cfg;
}

SimConfig
accKaguraConfig(const std::string &workload)
{
    SimConfig cfg = accConfig(workload);
    cfg.enableKagura = true;
    return cfg;
}

/**
 * Translate the suite-runner oracle convention into a runner job:
 * OracleMode::Record marks the intermittence-aware ideal and Replay
 * the infinite-energy phase-1 variant; both run two-phase as a single
 * job carrying the oracle-free base config.
 */
static runner::SimJob
suiteJob(SimConfig cfg)
{
    runner::SimJob job;
    if (cfg.oracle != OracleMode::Off) {
        job.kind = cfg.oracle == OracleMode::Record
                       ? runner::SimJob::Kind::IdealAware
                       : runner::SimJob::Kind::IdealUnaware;
        cfg.oracle = OracleMode::Off;
        cfg.oracleLog = nullptr;
    }
    job.config = std::move(cfg);
    return job;
}

SuiteResult
runSuite(const std::string &label,
         const std::function<SimConfig(const std::string &)> &make,
         const std::vector<std::string> &apps)
{
    // Build the full (app x seed) job list up front, then let the
    // runner execute it in parallel. Aggregation is index-based --
    // job (a, rep) lands in apps[a].runs[rep] -- so the SuiteResult
    // is bit-identical whatever the worker count.
    const unsigned repeats = suiteRepeats;
    std::vector<runner::SimJob> jobs;
    jobs.reserve(apps.size() * repeats);
    for (const std::string &app : apps) {
        for (unsigned rep = 0; rep < repeats; ++rep) {
            SimConfig cfg = make(app);
            cfg.traceSeed = suiteSeed(rep);
            jobs.push_back(suiteJob(std::move(cfg)));
        }
    }
    std::vector<SimResult> results = runner::runJobs(jobs);

    SuiteResult suite;
    suite.label = label;
    suite.apps.reserve(apps.size());
    std::size_t next = 0;
    for (const std::string &app : apps) {
        AppResult entry;
        entry.app = app;
        entry.runs.reserve(repeats);
        for (unsigned rep = 0; rep < repeats; ++rep)
            entry.runs.push_back(std::move(results[next++]));
        suite.apps.push_back(std::move(entry));
    }
    return suite;
}

/** Phase 1 of an ideal run: record, under the trace or without one. */
static SimConfig
idealRecordConfig(SimConfig base, bool intermittence_aware)
{
    base.oracle = OracleMode::Record;
    base.infiniteEnergy = !intermittence_aware;
    return base;
}

std::string
unawarePhase1Key(const SimConfig &base)
{
    SimConfig record = idealRecordConfig(base, false);
    const SimConfig defaults;
    record.trace = defaults.trace;
    record.traceSeed = defaults.traceSeed;
    record.traceScale = defaults.traceScale;
    record.traceIntervals = defaults.traceIntervals;
    return record.canonicalKey();
}

SimResult
runIdealOnce(const SimConfig &base, bool intermittence_aware,
             std::optional<OracleLog> *phase1)
{
    std::optional<OracleLog> own;
    std::optional<OracleLog> &log = phase1 ? *phase1 : own;

    // Phase 1: record per-block compression outcomes.
    if (!log) {
        Simulator recorder(idealRecordConfig(base, intermittence_aware));
        log = std::move(recorder.run().oracle);
    }

    // Phase 2: replay with the log vetoing useless compressions.
    SimConfig replay = base;
    replay.oracle = OracleMode::Replay;
    replay.oracleLog = &*log;
    Simulator phase2(replay);
    return phase2.run();
}

std::vector<SimResult>
runIdeal(const SimConfig &base, bool intermittence_aware)
{
    const unsigned repeats = suiteRepeats;
    std::vector<runner::SimJob> jobs;
    jobs.reserve(repeats);
    for (unsigned rep = 0; rep < repeats; ++rep) {
        runner::SimJob job;
        job.kind = intermittence_aware
                       ? runner::SimJob::Kind::IdealAware
                       : runner::SimJob::Kind::IdealUnaware;
        job.config = base;
        job.config.traceSeed = suiteSeed(rep);
        jobs.push_back(std::move(job));
    }
    return runner::runJobs(jobs);
}

double
speedupPct(const SimResult &config, const SimResult &baseline)
{
    kagura_assert(config.wallCycles > 0);
    return (static_cast<double>(baseline.wallCycles) /
                static_cast<double>(config.wallCycles) -
            1.0) *
           100.0;
}

double
energyDeltaPct(const SimResult &config, const SimResult &baseline)
{
    const double base = baseline.ledger.grandTotal();
    kagura_assert(base > 0.0);
    return (config.ledger.grandTotal() / base - 1.0) * 100.0;
}

double
speedupPct(const AppResult &config, const AppResult &baseline)
{
    kagura_assert(!config.runs.empty());
    kagura_assert(config.runs.size() == baseline.runs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < config.runs.size(); ++i)
        sum += speedupPct(config.runs[i], baseline.runs[i]);
    return sum / static_cast<double>(config.runs.size());
}

double
energyDeltaPct(const AppResult &config, const AppResult &baseline)
{
    kagura_assert(!config.runs.empty());
    kagura_assert(config.runs.size() == baseline.runs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < config.runs.size(); ++i)
        sum += energyDeltaPct(config.runs[i], baseline.runs[i]);
    return sum / static_cast<double>(config.runs.size());
}

double
meanSpeedupPct(const SuiteResult &config, const SuiteResult &baseline)
{
    kagura_assert(!config.apps.empty());
    double sum = 0.0;
    for (const AppResult &entry : config.apps)
        sum += speedupPct(entry, baseline.forApp(entry.app));
    return sum / static_cast<double>(config.apps.size());
}

double
meanEnergyDeltaPct(const SuiteResult &config, const SuiteResult &baseline)
{
    kagura_assert(!config.apps.empty());
    double sum = 0.0;
    for (const AppResult &entry : config.apps)
        sum += energyDeltaPct(entry, baseline.forApp(entry.app));
    return sum / static_cast<double>(config.apps.size());
}

} // namespace kagura
