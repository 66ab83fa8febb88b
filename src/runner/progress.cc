#include "runner/progress.hh"

#include <cstdlib>
#include <mutex>

#include "common/logging.hh"

namespace kagura
{
namespace runner
{

Progress &
progress()
{
    static Progress instance;
    return instance;
}

TelemetrySnapshot
Progress::snapshot() const
{
    TelemetrySnapshot s;
    s.jobsQueued = jobsQueued.load();
    s.jobsRunning = jobsRunning.load();
    s.jobsDone = jobsDone.load();
    s.simulations = simulations.load();
    s.cacheHits = cacheHits.load();
    s.cacheMisses = cacheMisses.load();
    s.jobSeconds = static_cast<double>(jobNanos.load()) * 1e-9;
    return s;
}

TelemetrySnapshot
TelemetrySnapshot::since(const TelemetrySnapshot &before) const
{
    TelemetrySnapshot d;
    d.jobsQueued = jobsQueued - before.jobsQueued;
    d.jobsRunning = jobsRunning;
    d.jobsDone = jobsDone - before.jobsDone;
    d.simulations = simulations - before.simulations;
    d.cacheHits = cacheHits - before.cacheHits;
    d.cacheMisses = cacheMisses - before.cacheMisses;
    d.jobSeconds = jobSeconds - before.jobSeconds;
    return d;
}

bool
liveProgressEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("KAGURA_PROGRESS");
        return env && env[0] == '1';
    }();
    return enabled;
}

void
liveProgressLine(const std::string &what, bool cache_hit, double seconds)
{
    if (!liveProgressEnabled())
        return;
    // One locked fprintf per job keeps lines intact under contention.
    static std::mutex mutex;
    const TelemetrySnapshot s = progress().snapshot();
    std::lock_guard<std::mutex> lock(mutex);
    std::fprintf(stderr,
                 "[runner] %llu/%llu done (%llu running) %s %s "
                 "(%.3f s)\n",
                 static_cast<unsigned long long>(s.jobsDone),
                 static_cast<unsigned long long>(s.jobsQueued),
                 static_cast<unsigned long long>(s.jobsRunning),
                 cache_hit ? "hit " : "sim ", what.c_str(), seconds);
}

std::string
summaryLine(const TelemetrySnapshot &s, unsigned threads)
{
    const std::uint64_t lookups = s.cacheHits + s.cacheMisses;
    return detail::vformat(
        "[runner] jobs=%llu sims=%llu cache_hits=%llu/%llu "
        "hit_rate=%.1f%% job_wall=%.3fs threads=%u",
        static_cast<unsigned long long>(s.jobsDone),
        static_cast<unsigned long long>(s.simulations),
        static_cast<unsigned long long>(s.cacheHits),
        static_cast<unsigned long long>(lookups), s.hitRate() * 100.0,
        s.jobSeconds, threads);
}

void
printSummary(std::FILE *out, unsigned threads)
{
    const std::string line = summaryLine(progress().snapshot(), threads);
    std::fprintf(out, "%s\n", line.c_str());
}

} // namespace runner
} // namespace kagura
