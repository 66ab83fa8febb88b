/**
 * @file
 * Runner telemetry: process-wide counters for job and cache activity,
 * plus an optional live per-job progress line (KAGURA_PROGRESS=1).
 *
 * All counters are atomics -- workers bump them concurrently -- and
 * the struct-of-atomics is the only mutable global the runner adds;
 * it is monotonic (never reset mid-run), so readers need no lock.
 */

#ifndef KAGURA_RUNNER_PROGRESS_HH
#define KAGURA_RUNNER_PROGRESS_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

namespace kagura
{
namespace runner
{

/** A consistent snapshot of the counters (copied, plain integers). */
struct TelemetrySnapshot
{
    std::uint64_t jobsQueued = 0;
    std::uint64_t jobsRunning = 0;
    std::uint64_t jobsDone = 0;
    /** Simulator runs: an ideal job that records its own phase 1
     *  counts two. */
    std::uint64_t simulations = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Wall time spent inside simulation jobs, summed over workers. */
    double jobSeconds = 0.0;

    /** Cache hit rate over all lookups (0 when the cache is off). */
    double
    hitRate() const
    {
        const std::uint64_t lookups = cacheHits + cacheMisses;
        return lookups ? static_cast<double>(cacheHits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }

    /**
     * The counters' growth from @p before to this snapshot
     * (jobsRunning, a level rather than a count, is copied as is).
     */
    TelemetrySnapshot since(const TelemetrySnapshot &before) const;
};

/** The counters themselves; see progress() for the global instance. */
class Progress
{
  public:
    void noteQueued(std::uint64_t n) { jobsQueued += n; }
    void noteStarted() { ++jobsRunning; }

    /** Job finished after @p seconds of wall time. */
    void
    noteDone(double seconds)
    {
        --jobsRunning;
        ++jobsDone;
        jobNanos += static_cast<std::uint64_t>(seconds * 1e9);
    }

    /** @p n Simulators ran (two for an ideal job's own phase 1). */
    void noteSimulations(unsigned n) { simulations += n; }
    void noteCacheHit() { ++cacheHits; }
    void noteCacheMiss() { ++cacheMisses; }

    TelemetrySnapshot snapshot() const;

  private:
    std::atomic<std::uint64_t> jobsQueued{0};
    std::atomic<std::uint64_t> jobsRunning{0};
    std::atomic<std::uint64_t> jobsDone{0};
    std::atomic<std::uint64_t> simulations{0};
    std::atomic<std::uint64_t> cacheHits{0};
    std::atomic<std::uint64_t> cacheMisses{0};
    std::atomic<std::uint64_t> jobNanos{0};
};

/** The process-wide telemetry instance. */
Progress &progress();

/** True when KAGURA_PROGRESS=1 asks for live per-job lines. */
bool liveProgressEnabled();

/** Emit one live per-job line to stderr (no-op unless enabled). */
void liveProgressLine(const std::string &what, bool cache_hit,
                      double seconds);

/**
 * One-line telemetry summary of @p s, e.g.
 *   [runner] jobs=105 sims=100 cache_hits=5/105 hit_rate=4.8% ...
 * kagura_bench prints one per bench (the counters that bench moved);
 * the CLIs print the whole run's.
 */
std::string summaryLine(const TelemetrySnapshot &s, unsigned threads);

/** Print summaryLine() of the whole run to @p out, newline-ended. */
void printSummary(std::FILE *out, unsigned threads);

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_PROGRESS_HH
