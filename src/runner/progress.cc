#include "runner/progress.hh"

#include <cstdlib>
#include <mutex>

#include "common/logging.hh"
#include "metrics/sink.hh"
#include "runner/runner.hh"

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
    s.phase1Reused = phase1Reused.load();
    s.phase1FromPlain = phase1FromPlain.load();
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
    d.phase1Reused = phase1Reused - before.phase1Reused;
    d.phase1FromPlain = phase1FromPlain - before.phase1FromPlain;
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

void
emitTelemetry(const TelemetrySnapshot &s)
{
    if (!metrics::defaultSink())
        return;
    const auto count = [](const char *name, std::uint64_t value) {
        metrics::emitHeadline(name, static_cast<double>(value));
    };
    count("runner/jobs_done", s.jobsDone);
    count("runner/simulations", s.simulations);
    count("runner/cache_hits", s.cacheHits);
    count("runner/cache_misses", s.cacheMisses);
    metrics::emitHeadline("runner/cache_hit_rate", s.hitRate());
    count("runner/phase1_reused", s.phase1Reused);
    count("runner/phase1_from_plain", s.phase1FromPlain);
    metrics::emitHeadline("runner/job_seconds", s.jobSeconds);
    count("runner/threads", jobCount());
}

} // namespace runner
} // namespace kagura
