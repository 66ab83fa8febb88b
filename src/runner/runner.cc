#include "runner/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

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
    // Count every Simulator that runs: an ideal job runs phase 2, plus
    // phase 1 unless the slot already holds the log.
    const bool shared_phase1 = phase1 && phase1->has_value();
    const unsigned sims =
        (job.kind == SimJob::Kind::Plain || shared_phase1) ? 1 : 2;
    progress().noteSimulations(sims);
    metrics::Registry &reg = metrics::Registry::global();
    // Interned once; the registry never drops an instrument.
    static metrics::Counter &simulations = reg.counter("runner/simulations");
    simulations.add(sims);
    switch (job.kind) {
      case SimJob::Kind::Plain: {
          // Recording only observes, so a plain run given a slot is
          // also the ideal-aware phase 1 of its config.
          SimConfig config = job.config;
          if (phase1) {
              kagura_assert(config.oracle == OracleMode::Off);
              config.oracle = OracleMode::Record;
          }
          Simulator sim(config);
          SimResult result = sim.run();
          if (phase1)
              *phase1 = std::exchange(result.oracle, {});
          if (perSimExport() && metrics::defaultSink())
              metrics::emitRegistry(sim.metricSet());
          return result;
      }
      case SimJob::Kind::IdealAware:
        if (shared_phase1)
            reg.counter("runner/phase1_from_plain").add();
        return runIdealOnce(job.config, true, phase1);
      case SimJob::Kind::IdealUnaware:
        if (shared_phase1)
            reg.counter("runner/phase1_reused").add();
        return runIdealOnce(job.config, false, phase1);
    }
    panic("unknown SimJob::Kind %d", static_cast<int>(job.kind));
}

/**
 * runJobDetailed() for a job whose config's canonicalKey() is
 * @p canonical (empty: not computed yet).
 */
JobOutcome
runKeyedJob(const SimJob &job, std::string canonical,
            std::optional<OracleLog> *phase1)
{
    // The ideal kinds carry the *base* config; the phases derive
    // their own oracle modes inside runIdealOnce.
    if (job.kind != SimJob::Kind::Plain)
        kagura_assert(job.config.oracle == OracleMode::Off);
    // A Replay config points at a caller-owned phase-1 log the cache
    // key cannot capture; such jobs always simulate.
    const bool cacheable = job.config.oracleLog == nullptr;

    // Interned once; the registry never drops an instrument.
    metrics::Registry &reg = metrics::Registry::global();
    static metrics::Counter &jobs_done = reg.counter("runner/jobs_done");
    static metrics::Timer &job_seconds = reg.timer("runner/job_seconds");
    static metrics::Counter &cache_hits = reg.counter("runner/cache_hits");
    static metrics::Counter &cache_misses =
        reg.counter("runner/cache_misses");

    CacheStore &cache = CacheStore::global();
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const auto finish = [&](bool cached_hit, double seconds) {
        progress().noteDone(seconds);
        jobs_done.add();
        job_seconds.observe(seconds);
        // The label is built only for a line that will be printed.
        if (liveProgressEnabled())
            liveProgressLine(job.config.describe(), cached_hit, seconds);
    };

    JobOutcome outcome;
    progress().noteStarted();
    if (cacheable && cache.enabled()) {
        if (canonical.empty())
            canonical = job.config.canonicalKey();
        const std::string key =
            jobKeyText(std::move(canonical), jobKindName(job.kind));
        const std::uint64_t hash = fnv1a64(key);
        std::string payload;
        SimResult cached;
        if (cache.lookup(hash, key, payload) &&
            decodeResult(payload, cached)) {
            progress().noteCacheHit();
            cache_hits.add();
            outcome.seconds = elapsed();
            finish(true, outcome.seconds);
            outcome.result = std::move(cached);
            outcome.cacheHit = true;
            return outcome;
        }
        progress().noteCacheMiss();
        cache_misses.add();
        SimResult result = execute(job, phase1);
        cache.store(hash, key, encodeResult(result));
        outcome.seconds = elapsed();
        finish(false, outcome.seconds);
        outcome.result = std::move(result);
        return outcome;
    }

    SimResult result = execute(job, phase1);
    outcome.seconds = elapsed();
    finish(false, outcome.seconds);
    outcome.result = std::move(result);
    return outcome;
}

/**
 * The pool tasks for @p jobs, each a list of job indices run in
 * order. Intermittence-unaware ideal jobs with one unawarePhase1Key()
 * share a task, so its jobs can share one phase-1 log. Plain and
 * intermittence-aware ideal jobs with one canonicalKey() share a
 * task, plain jobs first, so a plain run can record the aware jobs'
 * phase 1. Tasks keep the order of their first job. Each plain and
 * aware job's canonicalKey() lands in @p keys (the others' stay
 * empty), so the cache lookup need not compute it again.
 */
std::vector<std::vector<std::size_t>>
taskGroups(const std::vector<SimJob> &jobs, std::vector<std::string> &keys)
{
    std::vector<std::vector<std::size_t>> groups;
    keys.assign(jobs.size(), {});
    std::unordered_map<std::string, std::size_t> unaware;
    // Views into keys, which is not resized while the map lives.
    std::unordered_map<std::string_view, std::size_t> same_config;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::size_t fresh = groups.size();
        std::size_t group = fresh;
        if (jobs[i].kind == SimJob::Kind::IdealUnaware) {
            group = unaware.try_emplace(unawarePhase1Key(jobs[i].config),
                                        fresh)
                        .first->second;
        } else {
            keys[i] = jobs[i].config.canonicalKey();
            group = same_config.try_emplace(keys[i], fresh).first->second;
        }
        if (group == fresh)
            groups.emplace_back();
        std::vector<std::size_t> &members = groups[group];
        const auto aware = [&jobs](std::size_t j) {
            return jobs[j].kind == SimJob::Kind::IdealAware;
        };
        members.insert(jobs[i].kind == SimJob::Kind::Plain
                           ? std::find_if(members.begin(), members.end(),
                                          aware)
                           : members.end(),
                       i);
    }
    return groups;
}

/**
 * Run one task's jobs in order. In an unaware group the first job
 * that simulates records the phase-1 log and later ones replay
 * against it. In a plain/aware group the first plain job that
 * simulates records the log, and aware jobs that simulate replay
 * against it; without one they record their own. The log dies with
 * the task, so nothing outlives one runJobs() call.
 */
void
runGroup(const std::vector<SimJob> &jobs,
         const std::vector<std::size_t> &group,
         std::vector<std::string> &keys, std::vector<SimResult> &results)
{
    // Aware jobs sort last in a plain/aware group.
    const bool aware_follows =
        jobs[group.back()].kind == SimJob::Kind::IdealAware;
    std::optional<OracleLog> phase1;
    for (const std::size_t i : group) {
        std::optional<OracleLog> *slot = &phase1;
        const SimJob::Kind kind = jobs[i].kind;
        if (kind == SimJob::Kind::Plain && (!aware_follows || phase1))
            slot = nullptr; // no aware job needs a log, or one has it
        if (kind == SimJob::Kind::IdealAware && !phase1)
            slot = nullptr; // no plain run recorded: record privately
        results[i] =
            runKeyedJob(jobs[i], std::move(keys[i]), slot).result;
    }
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
    return runKeyedJob(job, {}, phase1);
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
    std::vector<std::string> keys;
    const std::vector<std::vector<std::size_t>> groups =
        taskGroups(jobs, keys);
    const unsigned workers = jobCount();
    if (workers <= 1 || groups.size() <= 1) {
        for (const std::vector<std::size_t> &group : groups)
            runGroup(jobs, group, keys, results);
        return results;
    }

    // Deterministic aggregation: every job owns slot i regardless of
    // which worker runs it or when it finishes.
    ThreadPool pool(workers);
    for (const std::vector<std::size_t> &group : groups)
        pool.submit([&jobs, &group, &keys, &results] {
            runGroup(jobs, group, keys, results);
        });
    pool.wait();
    return results;
}

} // namespace runner
} // namespace kagura
