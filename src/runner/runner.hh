/**
 * @file
 * The experiment-execution subsystem: turns (config, seed) simulation
 * jobs into SimResults, in parallel, with a persistent result cache.
 *
 * Deterministic by construction: callers submit an ordered job list
 * and every job writes its result into its own index slot, so the
 * returned vector is bit-identical whatever the worker count or
 * completion order (per-job randomness is already sealed inside the
 * job via SimConfig::traceSeed). The ideal-oracle two-phase
 * methodology runs as a single job, which is what makes ideal runs
 * cacheable; within one runJobs() call, intermittence-unaware jobs
 * that differ only in their power trace run as one task and share a
 * phase-1 log (infinite energy makes it trace-independent), and an
 * intermittence-aware job runs in one task with the plain job of its
 * config, whose simulation is its phase 1.
 *
 * Scheduling is parallelFor(): the calling thread plus up to
 * jobCount() - 1 std::jthreads claim task indices from one atomic
 * cursor, highest index first. Every runner event is counted once, in
 * runner::progress() (progress.hh).
 *
 * Knobs: --jobs / KAGURA_JOBS (worker count, default
 * hardware_concurrency), KAGURA_CACHE=off, KAGURA_CACHE_DIR,
 * KAGURA_PROGRESS=1 (live per-job lines on stderr).
 */

#ifndef KAGURA_RUNNER_RUNNER_HH
#define KAGURA_RUNNER_RUNNER_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace kagura
{
namespace runner
{

/** One schedulable unit of simulation work. */
struct SimJob
{
    /** How to execute the config. */
    enum class Kind
    {
        Plain,        ///< one Simulator::run()
        IdealAware,   ///< two-phase ideal, phase 1 under the real trace
        IdealUnaware, ///< two-phase ideal, phase 1 at infinite energy
    };

    SimConfig config;
    Kind kind = Kind::Plain;
};

/** Stable tag naming a job kind (part of the cache key). */
const char *jobKindName(SimJob::Kind kind);

/**
 * Set the worker count for subsequent runJobs() calls; 0 restores the
 * default (KAGURA_JOBS env, else hardware_concurrency). Call from the
 * harness before the sweep starts, not concurrently with one.
 */
void setJobCount(unsigned n);

/** The worker count runJobs() would use right now (>= 1). */
unsigned jobCount();

/**
 * Call @p fn(i) once for every i in [0, n) and return when all calls
 * have finished. The calling thread and min(jobCount(), n) - 1
 * std::jthreads claim indices from one atomic cursor, highest index
 * first. With one worker or n <= 1 the caller makes every call itself
 * and no thread starts. @p fn must be safe to call concurrently for
 * distinct indices.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

/**
 * Execute one job: consult the persistent cache, simulate on a miss,
 * store the encoded result. Safe to call from any thread.
 */
SimResult runJob(const SimJob &job);

/** How one job was satisfied (telemetry consumers). */
struct JobOutcome
{
    SimResult result;
    /** Served from the persistent result cache, no simulation run. */
    bool cacheHit = false;
    /** Wall seconds spent inside this job. */
    double seconds = 0.0;
};

/**
 * runJob() with the cache/timing detail exposed to the caller. An
 * ideal job that simulates takes phase 1 from @p phase1 when it holds
 * a log and records it there otherwise (see runIdealOnce()). A plain
 * job (with an oracle-free config) that simulates records into the
 * slot the phase 1 an ideal-aware job of its config would run, and
 * returns its result without the log.
 */
JobOutcome runJobDetailed(const SimJob &job,
                          std::optional<OracleLog> *phase1 = nullptr);

/**
 * Execute @p jobs across jobCount() workers and return their results
 * in job order: results[i] corresponds to jobs[i], always.
 */
std::vector<SimResult> runJobs(const std::vector<SimJob> &jobs);

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_RUNNER_HH
