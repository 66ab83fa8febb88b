/**
 * @file
 * The benchmark's workloads as runner job lists, and the correctness
 * checks every timed run applies to their results.
 *
 * A workload seed derives every trace seed (mixSeeds(seed, i)); the
 * cells the committed goldens pin always run at the default trace
 * seed, so they are checkable whatever seed the run was given.
 */

#ifndef PERFBENCH_JOBS_HH
#define PERFBENCH_JOBS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/runner.hh"

namespace perfbench
{

/** The named workloads (BENCHMARK.json lists the same names). */
enum class WorkloadId
{
    PaperSuite, ///< Fig. 13 job list, cold
    DesignAxes, ///< ACC+Kagura crossed with one design axis per cell
    WarmReplay, ///< the paper-suite list replayed from a warm cache
};

/** The name a workload goes by on the command line. */
const char *workloadName(WorkloadId workload);

/** Parse a workload name; nullopt when unknown. */
std::optional<WorkloadId> parseWorkload(std::string_view name);

/** Trace seeds per paper-suite cell (the Fig. 13 default of five). */
constexpr unsigned paperSuiteSeeds = 5;

/** Trace seeds per design-axes cell. */
constexpr unsigned designAxesSeeds = 3;

/** The i-th trace seed a workload seed derives. */
std::uint64_t traceSeedFor(std::uint64_t seed, unsigned index);

/** A workload's jobs plus what the checks need to know about each. */
struct JobList
{
    std::vector<kagura::runner::SimJob> jobs;
    /**
     * Parallel to jobs: the golden row and column that pins the job's
     * result ("crc32/kagura", "fft/nvmr"), or empty when none does.
     */
    std::vector<std::string> goldenKeys;
    /** Every app the list names, in first-use order. */
    std::vector<std::string> apps;
};

/**
 * The job list of @p workload at @p seed. Warm-replay replays the
 * paper-suite list.
 */
JobList jobsFor(WorkloadId workload, std::uint64_t seed);

/**
 * Instructions the list's simulations committed: each result's count
 * once per simulation its job ran.
 */
std::uint64_t simulatedInstructions(
    const JobList &list, const std::vector<kagura::SimResult> &results);

/** One runner::runJobs pass over a list, as the runner saw it. */
struct Pass
{
    std::vector<kagura::SimResult> results;
    double wallSeconds = 0.0;
    /** Delta of runner::progress() job seconds (summed over workers). */
    double jobSeconds = 0.0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/** Run @p list through runner::runJobs against the cache in @p dir. */
Pass runPass(const JobList &list, const std::string &dir);

/** Golden fingerprints keyed "app/column". */
using Goldens = std::map<std::string, std::uint64_t>;

/**
 * Read tests/data/golden_results.txt (columns base, acc, kagura) and
 * golden_ehs_results.txt (nvsram, nvmr, sweep) under @p root. Returns
 * false with @p error set when a file is missing or malformed.
 */
bool loadGoldens(const std::string &root, Goldens &out,
                 std::string &error);

/** Running tally of the checks a run applied. */
struct CheckTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failure descriptions, for the log. */
    std::vector<std::string> firstFailures;

    /** Record one check; @p what describes a failure. */
    void note(bool ok, const std::string &what);
};

/**
 * Check one job's result: its golden fingerprint when a golden pins
 * it, committed instructions against the workload (equal for designs
 * that resume at the failure point, no fewer for designs that roll
 * back), and basic sanity (nonzero wall time and energy).
 */
bool checkJob(const kagura::runner::SimJob &job,
              const std::string &golden_key,
              const kagura::SimResult &result, const Goldens &goldens,
              std::string &why);

/** checkJob over a whole list; one tally entry per job. */
void checkResults(const JobList &list,
                  const std::vector<kagura::SimResult> &results,
                  const Goldens &goldens, CheckTally &tally);

} // namespace perfbench

#endif // PERFBENCH_JOBS_HH
