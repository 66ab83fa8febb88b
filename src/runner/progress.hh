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
 * One-line telemetry summary, e.g.
 *   [runner] 105 jobs, 100 sims, 5/105 cache hits (4.8%), ...
 * The harness prints it after a sweep; run_all_benches.sh greps it.
 */
std::string summaryLine(unsigned threads);

/** Print summaryLine() to @p out with a trailing newline. */
void printSummary(std::FILE *out, unsigned threads);

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_PROGRESS_HH
