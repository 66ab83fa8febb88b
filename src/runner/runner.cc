#include "runner/runner.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "metrics/sink.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/progress.hh"
#include "runner/result_codec.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"

namespace kagura
{
namespace runner
{

namespace
{

/** Harness-requested worker count; 0 = auto. Set before a sweep. */
std::atomic<unsigned> requestedJobs{0};

/**
 * Per-simulation record export is opt-in (KAGURA_METRICS_PER_SIM=1):
 * a fleet sweep runs thousands of simulations and the default export
 * keeps only the aggregate runner counters and bench headlines.
 */
bool
perSimExport()
{
    static const bool enabled = [] {
        const char *env = std::getenv("KAGURA_METRICS_PER_SIM");
        return env && env[0] == '1' && env[1] == '\0';
    }();
    return enabled;
}

SimResult
execute(const SimJob &job, std::optional<OracleLog> *phase1)
{
    progress().noteSimulation();
    metrics::Registry::global().counter("runner/simulations").add();
    switch (job.kind) {
      case SimJob::Kind::Plain: {
          Simulator sim(job.config);
          SimResult result = sim.run();
          if (perSimExport() && metrics::defaultSink())
              metrics::emitRegistry(sim.metricSet());
          return result;
      }
      case SimJob::Kind::IdealAware:
        return runIdealOnce(job.config, true);
      case SimJob::Kind::IdealUnaware:
        if (phase1 && phase1->has_value())
            metrics::Registry::global().counter("runner/phase1_reused").add();
        return runIdealOnce(job.config, false, phase1);
    }
    panic("unknown SimJob::Kind %d", static_cast<int>(job.kind));
}

/**
 * The pool tasks for @p jobs, each a list of job indices run in
 * order. Intermittence-unaware ideal jobs with one unawarePhase1Key()
 * share a task, so its jobs can share one phase-1 log; every other
 * job is a task of its own. Tasks keep the order of their first job.
 */
std::vector<std::vector<std::size_t>>
taskGroups(const std::vector<SimJob> &jobs)
{
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> by_key;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].kind != SimJob::Kind::IdealUnaware) {
            groups.push_back({i});
            continue;
        }
        const auto [it, fresh] = by_key.try_emplace(
            unawarePhase1Key(jobs[i].config), groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

/**
 * Run one task's jobs in order; the first that simulates records the
 * group's phase-1 log and later ones replay against it. The log dies
 * with the task, so nothing outlives one runJobs() call.
 */
void
runGroup(const std::vector<SimJob> &jobs,
         const std::vector<std::size_t> &group,
         std::vector<SimResult> &results)
{
    std::optional<OracleLog> phase1;
    for (const std::size_t i : group)
        results[i] = runJobDetailed(jobs[i], &phase1).result;
}

} // namespace

const char *
jobKindName(SimJob::Kind kind)
{
    switch (kind) {
      case SimJob::Kind::Plain:
        return "plain";
      case SimJob::Kind::IdealAware:
        return "ideal-aware";
      case SimJob::Kind::IdealUnaware:
        return "ideal-unaware";
    }
    panic("unknown SimJob::Kind %d", static_cast<int>(kind));
}

void
setJobCount(unsigned n)
{
    requestedJobs = n;
}

unsigned
jobCount()
{
    const unsigned n = requestedJobs.load();
    return n ? n : ThreadPool::defaultThreadCount();
}

JobOutcome
runJobDetailed(const SimJob &job, std::optional<OracleLog> *phase1)
{
    // The ideal kinds carry the *base* config; the phases derive
    // their own oracle modes inside runIdealOnce.
    if (job.kind != SimJob::Kind::Plain)
        kagura_assert(job.config.oracle == OracleMode::Off);
    // A Replay config points at a caller-owned phase-1 log the cache
    // key cannot capture; such jobs always simulate.
    const bool cacheable = job.config.oracleLog == nullptr;

    CacheStore &cache = CacheStore::global();
    metrics::Registry &reg = metrics::Registry::global();
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const auto finish = [&](const std::string &what, bool cached_hit,
                            double seconds) {
        progress().noteDone(seconds);
        reg.counter("runner/jobs_done").add();
        reg.timer("runner/job_seconds").observe(seconds);
        liveProgressLine(what, cached_hit, seconds);
    };

    JobOutcome outcome;
    progress().noteStarted();
    if (cacheable && cache.enabled()) {
        const std::string key = jobKeyText(job.config,
                                           jobKindName(job.kind));
        const std::uint64_t hash = fnv1a64(key);
        std::string payload;
        SimResult cached;
        if (cache.lookup(hash, key, payload) &&
            decodeResult(payload, cached)) {
            progress().noteCacheHit();
            reg.counter("runner/cache_hits").add();
            outcome.seconds = elapsed();
            finish(job.config.describe(), true, outcome.seconds);
            outcome.result = std::move(cached);
            outcome.cacheHit = true;
            return outcome;
        }
        progress().noteCacheMiss();
        reg.counter("runner/cache_misses").add();
        SimResult result = execute(job, phase1);
        cache.store(hash, key, encodeResult(result));
        outcome.seconds = elapsed();
        finish(job.config.describe(), false, outcome.seconds);
        outcome.result = std::move(result);
        return outcome;
    }

    SimResult result = execute(job, phase1);
    outcome.seconds = elapsed();
    finish(job.config.describe(), false, outcome.seconds);
    outcome.result = std::move(result);
    return outcome;
}

SimResult
runJob(const SimJob &job)
{
    return runJobDetailed(job).result;
}

std::vector<SimResult>
runJobs(const std::vector<SimJob> &jobs)
{
    progress().noteQueued(jobs.size());
    std::vector<SimResult> results(jobs.size());
    const std::vector<std::vector<std::size_t>> groups = taskGroups(jobs);
    const unsigned workers = jobCount();
    if (workers <= 1 || groups.size() <= 1) {
        for (const std::vector<std::size_t> &group : groups)
            runGroup(jobs, group, results);
        return results;
    }

    // Deterministic aggregation: every job owns slot i regardless of
    // which worker runs it or when it finishes.
    ThreadPool pool(workers);
    for (const std::vector<std::size_t> &group : groups)
        pool.submit([&jobs, &group, &results] {
            runGroup(jobs, group, results);
        });
    pool.wait();
    return results;
}

} // namespace runner
} // namespace kagura
