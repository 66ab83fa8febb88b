#include "runner/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "metrics/sink.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/env.hh"
#include "runner/progress.hh"
#include "runner/result_codec.hh"
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
 * Emit @p result's per-power-cycle series (--metrics-timeseries): one
 * gauge per completed cycle and PowerCycleRecord row, indexed by a
 * cycle_index label so downstream tools can rebuild the trajectory
 * exactly instead of through histogram buckets. It reads the result,
 * so a cache hit exports the same series as the run that stored it.
 */
void
emitCycleSeries(const SimJob &job, const SimResult &result)
{
    if (!metrics::timeseriesEnabled() || !metrics::defaultSink())
        return;
    const std::string config = job.config.describe();
    std::size_t index = 0;
    for (const PowerCycleRecord &rec : result.cycles) {
        forEachRow<PowerCycleRecord>([&](const auto &row) {
            metrics::Record record;
            record.kind = metrics::RecordKind::Gauge;
            record.name = "sim/cycle/";
            record.name += row.name;
            record.labels = {{"workload", result.workload},
                             {"config", config},
                             {"cycle_index", std::to_string(index)}};
            record.value = static_cast<double>(rec.*row.member);
            metrics::emitRecord(std::move(record));
        });
        ++index;
    }
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
          // A whole set per plain simulation only when asked for
          // (KAGURA_METRICS_PER_SIM): a sweep runs thousands.
          if (metrics::perSimEnabled() && metrics::defaultSink()) {
              for (metrics::Record &rec : sim.metricSet().snapshot())
                  metrics::emitRecord(std::move(rec));
          }
          return result;
      }
      case SimJob::Kind::IdealAware:
        if (shared_phase1)
            progress().notePhase1FromPlain();
        return runIdealOnce(job.config, true, phase1);
      case SimJob::Kind::IdealUnaware:
        if (shared_phase1)
            progress().notePhase1Reused();
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

    CacheStore &cache = CacheStore::global();
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const auto finish = [&](SimResult &&result, bool cached_hit) {
        JobOutcome outcome;
        outcome.seconds = elapsed();
        progress().noteDone(outcome.seconds);
        // The label is built only for a line that will be printed.
        if (liveProgressEnabled())
            liveProgressLine(job.config.describe(), cached_hit,
                             outcome.seconds);
        emitCycleSeries(job, result);
        outcome.result = std::move(result);
        outcome.cacheHit = cached_hit;
        return outcome;
    };

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
            return finish(std::move(cached), true);
        }
        progress().noteCacheMiss();
        SimResult result = execute(job, phase1);
        cache.store(hash, key, encodeResult(result));
        return finish(std::move(result), false);
    }
    return finish(execute(job, phase1), false);
}

/**
 * The tasks for @p jobs, each a list of job indices run in
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
    if (const unsigned n = requestedJobs.load())
        return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return envCount("KAGURA_JOBS", hw ? hw : 1);
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    // The k-th claim takes index n - 1 - k. Each index is claimed once;
    // the workers' last claims overshoot n and stop them.
    std::atomic<std::size_t> claims{0};
    const auto drain = [&claims, &fn, n] {
        for (std::size_t k = claims.fetch_add(1, std::memory_order_relaxed);
             k < n; k = claims.fetch_add(1, std::memory_order_relaxed))
            fn(n - 1 - k);
    };
    const std::size_t helpers =
        n > 1 ? std::min<std::size_t>(jobCount(), n) - 1 : 0;
    std::vector<std::jthread> threads;
    threads.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t)
        threads.emplace_back(drain);
    drain();
    // ~jthread joins, so every call's writes are visible on return.
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
    // Deterministic aggregation: every job owns slot i regardless of
    // which worker runs it or when it finishes.
    parallelFor(groups.size(), [&](std::size_t g) {
        runGroup(jobs, groups[g], keys, results);
    });
    return results;
}

} // namespace runner
} // namespace kagura
