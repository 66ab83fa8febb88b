/**
 * @file
 * kagura_perfbench -- the repo benchmark. One process runs one named
 * workload and prints every metric by name with its unit, then one
 * JSON result line:
 *
 *   kagura_perfbench --workload paper-suite --seed 1 --seconds 20 \
 *       --trace 0 --root . --work .bench_build/perfbench-work
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 runs the
 * per-layer replays instead and writes their spans as Chrome
 * trace-event JSON under --work. perfbench/README.md documents the
 * metrics and workloads.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "catalog.hh"
#include "common/logging.hh"
#include "jobs.hh"
#include "layers.hh"
#include "runner/result_codec.hh"
#include "runner/runner.hh"
#include "stats.hh"

namespace fs = std::filesystem;
using namespace perfbench;
using kagura::SimResult;

namespace
{

struct Options
{
    WorkloadId workload = WorkloadId::PaperSuite;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string root = ".";
    std::string work = ".bench_build/perfbench-work";
};

[[noreturn]] void
usage(const char *problem)
{
    std::fprintf(stderr,
                 "kagura_perfbench: %s\n"
                 "usage: kagura_perfbench --workload "
                 "paper-suite|design-axes|warm-replay --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--work DIR]\n",
                 problem);
    std::exit(2);
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-')
        return false;
    out = v;
    return true;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            const auto w = parseWorkload(value);
            if (!w)
                usage((std::string("unknown workload ") + value).c_str());
            opt.workload = *w;
            have_workload = true;
        } else if (flag == "--seed" && parseUnsigned(value, n)) {
            opt.seed = n;
        } else if (flag == "--seconds" && parseUnsigned(value, n) &&
                   n >= 1 && n <= 3600) {
            opt.seconds = static_cast<double>(n);
        } else if (flag == "--trace" && parseUnsigned(value, n) && n <= 1) {
            opt.trace = n == 1;
        } else if (flag == "--root") {
            opt.root = value;
        } else if (flag == "--work") {
            opt.work = value;
        } else {
            usage(("bad argument " + flag + " " + value).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

/** Removes a scratch directory on every exit path. */
class ScratchDir
{
  public:
    explicit ScratchDir(std::string path) : dir(std::move(path))
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

/** Samples the end-to-end metrics are reduced from. */
struct Samples
{
    std::vector<double> setup;
    std::vector<double> coldWall;
    std::vector<double> coldRate;
    std::vector<double> warmWall;
    std::vector<double> hitUs;
};

/** Record one cold pass: its wall time and simulation rate. */
void
noteCold(const JobList &list, const Pass &pass, Samples &samples)
{
    samples.coldWall.push_back(pass.wallSeconds);
    samples.coldRate.push_back(
        static_cast<double>(simulatedInstructions(list, pass.results)) /
        1e6 / pass.jobSeconds);
}

/** Canonical encodings of a cold pass, the reference hits must match. */
std::vector<std::string>
encodingsOf(const std::vector<SimResult> &results)
{
    std::vector<std::string> out;
    out.reserve(results.size());
    for (const SimResult &r : results)
        out.push_back(kagura::runner::encodeResult(r));
    return out;
}

/** Runs the runner at @p workers for as long as it lives. */
class ScopedJobCount
{
  public:
    explicit ScopedJobCount(unsigned workers)
        : saved(kagura::runner::jobCount())
    {
        kagura::runner::setJobCount(workers);
    }
    ~ScopedJobCount() { kagura::runner::setJobCount(saved); }
    ScopedJobCount(const ScopedJobCount &) = delete;
    ScopedJobCount &operator=(const ScopedJobCount &) = delete;

  private:
    unsigned saved;
};

/** Warm passes per warm_wall_s sample. */
constexpr unsigned warmBatchPasses = 5;

/**
 * Replay @p list against the warm cache in @p dir: @p batches batches
 * of warmBatchPasses runJobs passes at one worker, each recorded as one
 * warm_wall_s sample (the batch's mean pass wall time), then @p sweeps
 * single-threaded runJob sweeps timing every hit. Each result must be a
 * hit whose encoding equals the cold result's (exactlyEqual's
 * criterion).
 *
 * A warm pass takes about 10 ms at four workers, and on a shared host
 * any other runnable thread stretches it by a scheduler slice; at one
 * worker it keeps to one core, and averaging a batch of passes smooths
 * what is left.
 */
void
warmPhase(const JobList &list, const std::string &dir,
          const std::vector<std::string> &reference, unsigned batches,
          unsigned sweeps, Samples &samples, CheckTally &tally)
{
    const ScopedJobCount one_worker(1);
    for (unsigned b = 0; b < batches; ++b) {
        double batch_wall = 0.0;
        for (unsigned p = 0; p < warmBatchPasses; ++p) {
            const Pass pass = runPass(list, dir);
            batch_wall += pass.wallSeconds;
            tally.note(pass.cacheHits == list.jobs.size(),
                       "warm pass missed the cache");
            for (std::size_t i = 0; i < list.jobs.size(); ++i) {
                const bool same =
                    kagura::runner::encodeResult(pass.results[i]) ==
                    reference[i];
                tally.note(same,
                           same ? std::string()
                                : list.jobs[i].config.describe() +
                                      ": warm result differs from cold");
            }
        }
        samples.warmWall.push_back(batch_wall / warmBatchPasses);
    }
    for (unsigned s = 0; s < sweeps; ++s) {
        for (std::size_t i = 0; i < list.jobs.size(); ++i) {
            const double start = nowSeconds();
            const kagura::runner::JobOutcome outcome =
                kagura::runner::runJobDetailed(list.jobs[i]);
            samples.hitUs.push_back((nowSeconds() - start) * 1e6);
            const bool same =
                outcome.cacheHit &&
                kagura::runner::encodeResult(outcome.result) == reference[i];
            tally.note(same, same ? std::string()
                                  : list.jobs[i].config.describe() +
                                        ": single-job hit differs from cold");
        }
    }
}

/**
 * Set-up: build every workload the list names (the first time through
 * the process-wide memo, afterwards from scratch); on warm-replay also
 * fill a fresh cache directory. Repeated @p times; the last fill stays.
 */
void
setUp(const Options &opt, const JobList &list, const Goldens &goldens,
      const std::string &fill_dir, unsigned times, Samples &samples,
      std::vector<std::string> &reference, CheckTally &tally)
{
    for (unsigned s = 0; s < times; ++s) {
        const double start = nowSeconds();
        for (const std::string &app : list.apps) {
            if (s == 0)
                kagura::cachedWorkload(app);
            else
                kagura::makeWorkload(app);
        }
        if (opt.workload == WorkloadId::WarmReplay) {
            fs::remove_all(fill_dir);
            const Pass fill = runPass(list, fill_dir);
            samples.setup.push_back(nowSeconds() - start);
            noteCold(list, fill, samples);
            checkResults(list, fill.results, goldens, tally);
            reference = encodingsOf(fill.results);
        } else {
            samples.setup.push_back(nowSeconds() - start);
        }
    }
}

std::map<std::string, double>
measureEndToEnd(const Options &opt, const JobList &list,
                const Goldens &goldens, const std::string &dir,
                CheckTally &tally)
{
    Samples samples;
    std::vector<std::string> reference;
    const std::string fill_dir = dir + "/fill";
    const bool warm = opt.workload == WorkloadId::WarmReplay;
    // A warm-replay set-up includes a ~6 s cold fill; the others take
    // well under a second, so they repeat more for a steadier median.
    setUp(opt, list, goldens, fill_dir, warm ? 3 : 9, samples, reference,
          tally);

    const double deadline = nowSeconds() + opt.seconds;
    if (warm) {
        do {
            warmPhase(list, fill_dir, reference, 1, 1, samples, tally);
        } while (nowSeconds() < deadline);
    } else {
        unsigned n = 0;
        do {
            const std::string pass_dir = dir + "/pass" + std::to_string(n++);
            const Pass cold = runPass(list, pass_dir);
            noteCold(list, cold, samples);
            checkResults(list, cold.results, goldens, tally);
            warmPhase(list, pass_dir, encodingsOf(cold.results), 2, 2,
                      samples, tally);
            fs::remove_all(pass_dir);
        } while (nowSeconds() < deadline);
    }

    std::map<std::string, double> m;
    m["sweep_wall_s"] = median(samples.coldWall);
    m["sim_minst_per_s"] = median(samples.coldRate);
    m["warm_wall_s"] = median(samples.warmWall);
    m["warm_hit_us_p50"] = percentile(samples.hitUs, 50.0);
    m["warm_hit_us_p99"] = percentile(samples.hitUs, 99.0);
    m["setup_s"] = median(samples.setup);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::printf("# samples: %zu cold passes, %zu warm batches, %zu hits, "
                "%zu set-ups\n",
                samples.coldWall.size(), samples.warmWall.size(),
                samples.hitUs.size(), samples.setup.size());
    std::printf("# cold pass walls (s):");
    for (double s : samples.coldWall)
        std::printf(" %.3f", s);
    std::printf("\n# set-ups (s):");
    for (double s : samples.setup)
        std::printf(" %.3f", s);
    std::printf("\n");
    return m;
}

std::map<std::string, double>
measureLayers(const Options &opt, const JobList &list,
              const Goldens &goldens, const std::string &dir,
              CheckTally &tally)
{
    for (const std::string &app : list.apps)
        kagura::cachedWorkload(app);
    const LayerInputs inputs = makeLayerInputs(list, opt.seed);
    SpanRecorder spans;
    std::map<std::string, std::vector<double>> rounds;
    const double deadline = nowSeconds() + opt.seconds;
    {
        SpanScope root(&spans, std::string("traced ") +
                                   workloadName(opt.workload));
        unsigned n = 0;
        do {
            SpanScope round(&spans, "round " + std::to_string(n++));
            LayerMetrics metrics;
            runLayerReplays(inputs, goldens, dir, &spans, metrics, tally);
            for (const auto &[name, value] : metrics)
                rounds[name].push_back(value);
        } while (nowSeconds() < deadline);
    }
    if (opt.workload == WorkloadId::WarmReplay)
        tally.note(median(rounds["runner.hit_rate"]) == 1.0,
                   "warm replay hit rate below 1.0");

    const std::string path = opt.work + "/trace-" +
                             workloadName(opt.workload) + "-seed" +
                             std::to_string(opt.seed) + ".json";
    if (spans.writeChromeTrace(path))
        std::printf("# spans: %zu written to %s\n", spans.spans().size(),
                    path.c_str());
    else
        std::fprintf(stderr, "kagura_perfbench: cannot write %s\n",
                     path.c_str());

    std::map<std::string, double> m;
    for (const auto &[name, values] : rounds)
        m[name] = median(values);
    return m;
}

/** Print the human table and the JSON result line; false if incomplete. */
bool
report(const Options &opt, const std::map<std::string, double> &measured,
       const CheckTally &tally)
{
    bool complete = true;
    std::string json = "{\"correct\": ";
    std::string metrics;
    const auto emit = [&](const MetricDef &def) {
        const auto it = measured.find(def.name);
        if (it == measured.end() || !std::isfinite(it->second)) {
            std::fprintf(stderr, "kagura_perfbench: metric %s missing\n",
                         def.name);
            complete = false;
            return;
        }
        std::printf("%-36s %14.6g %s\n", def.name, it->second, def.unit);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", def.name, it->second,
                      def.unit);
        metrics += buf;
    };
    if (opt.trace) {
        for (const MetricDef &def : perLayerMetrics)
            emit(def);
    } else {
        for (const MetricDef &def : endToEndMetrics)
            emit(def);
    }
    const double failed_share =
        tally.attempted ? static_cast<double>(tally.failed) /
                              static_cast<double>(tally.attempted)
                        : 1.0;
    std::printf("%-36s %14.6g %s (%llu of %llu checks)\n",
                "jobs_failed_share", failed_share, "ratio",
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    if (opt.trace)
        std::printf("# sim.kagura_speedup_pct beside the paper's +4.74%%\n");
    for (const std::string &why : tally.firstFailures)
        std::fprintf(stderr, "kagura_perfbench: check failed: %s\n",
                     why.c_str());
    if (!complete || tally.attempted == 0)
        return false;
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted) +
            ", \"failed\": " + std::to_string(tally.failed) +
            ", \"metrics\": {" + metrics + "}}";
    std::printf("%s\n", json.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    kagura::informEnabled = false;

    Goldens goldens;
    std::string error;
    if (!loadGoldens(opt.root, goldens, error)) {
        std::fprintf(stderr, "kagura_perfbench: %s\n", error.c_str());
        return 1;
    }

    // Four workers at most, so runs on hosts with more cores still
    // measure the same parallelism.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    kagura::runner::setJobCount(std::min(4u, hw));
    const JobList list = jobsFor(opt.workload, opt.seed);

    std::printf("# workload %s, seed %llu, %zu jobs, %u workers, %s\n",
                workloadName(opt.workload),
                static_cast<unsigned long long>(opt.seed), list.jobs.size(),
                kagura::runner::jobCount(),
                opt.trace ? "traced" : "untraced");
    const ScratchDir scratch(opt.work + "/" + workloadName(opt.workload) +
                             "-" + std::to_string(::getpid()));
    CheckTally tally;
    const std::map<std::string, double> measured =
        opt.trace ? measureLayers(opt, list, goldens, scratch.path(), tally)
                  : measureEndToEnd(opt, list, goldens, scratch.path(),
                                    tally);
    return report(opt, measured, tally) ? 0 : 1;
}
