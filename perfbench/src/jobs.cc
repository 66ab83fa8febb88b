#include "jobs.hh"

#include <fstream>
#include <sstream>

#include "common/rng.hh"
#include "core/workload.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/progress.hh"
#include "runner/result_codec.hh"
#include "sim/experiment.hh"
#include "stats.hh"

namespace perfbench
{

using kagura::EhsKind;
using kagura::SimConfig;
using kagura::SimResult;
using kagura::runner::SimJob;

const char *
workloadName(WorkloadId workload)
{
    switch (workload) {
      case WorkloadId::PaperSuite:
        return "paper-suite";
      case WorkloadId::DesignAxes:
        return "design-axes";
      case WorkloadId::WarmReplay:
        return "warm-replay";
    }
    return "?";
}

std::optional<WorkloadId>
parseWorkload(std::string_view name)
{
    for (WorkloadId w : {WorkloadId::PaperSuite, WorkloadId::DesignAxes,
                         WorkloadId::WarmReplay}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

std::uint64_t
traceSeedFor(std::uint64_t seed, unsigned index)
{
    return kagura::mixSeeds(seed, index);
}

namespace
{

/** The eight-app subset the repo's sensitivity sweeps run over. */
const std::vector<std::string> &
sweepApps()
{
    static const std::vector<std::string> apps = {
        "adpcm_d", "blowfish", "crc32",  "fft",
        "g721d",   "jpegd",    "susans", "typeset",
    };
    return apps;
}

void
push(JobList &list, SimConfig config,
     SimJob::Kind kind = SimJob::Kind::Plain, std::string golden_key = {})
{
    SimJob job;
    job.config = std::move(config);
    job.kind = kind;
    list.jobs.push_back(std::move(job));
    list.goldenKeys.push_back(std::move(golden_key));
}

/** One Fig. 13 series: its base config and how the runner runs it. */
struct Series
{
    SimConfig (*make)(const std::string &);
    SimJob::Kind kind;
};

/** Baseline, ACC, ACC+Kagura, ideal ACC, ideal Kagura (fig13's order). */
const Series fig13Series[] = {
    {kagura::baselineConfig, SimJob::Kind::Plain},
    {kagura::accConfig, SimJob::Kind::Plain},
    {kagura::accKaguraConfig, SimJob::Kind::Plain},
    {kagura::accConfig, SimJob::Kind::IdealUnaware},
    {kagura::accKaguraConfig, SimJob::Kind::IdealAware},
};

/**
 * Fig. 13: every series over the 20 apps at paperSuiteSeeds seeds
 * each, then the golden trio at the default trace seed.
 */
JobList
paperSuite(std::uint64_t seed)
{
    JobList list;
    list.apps = kagura::workloadNames();
    for (const Series &series : fig13Series) {
        for (const std::string &app : list.apps) {
            for (unsigned rep = 0; rep < paperSuiteSeeds; ++rep) {
                SimConfig cfg = series.make(app);
                cfg.traceSeed = traceSeedFor(seed, rep);
                push(list, std::move(cfg), series.kind);
            }
        }
    }
    for (const std::string &app : list.apps) {
        push(list, kagura::baselineConfig(app), SimJob::Kind::Plain,
             app + "/base");
        push(list, kagura::accConfig(app), SimJob::Kind::Plain,
             app + "/acc");
        push(list, kagura::accKaguraConfig(app), SimJob::Kind::Plain,
             app + "/kagura");
    }
    return list;
}

/** One design axis changed from the ACC+Kagura default. */
struct Axis
{
    const char *name;
    void (*apply)(SimConfig &);
};

const Axis designAxes[] = {
    {"superblock",
     [](SimConfig &c) {
         c.icache.tagLayout = kagura::TagLayoutKind::Superblock;
         c.dcache.tagLayout = kagura::TagLayoutKind::Superblock;
     }},
    {"signature",
     [](SimConfig &c) {
         c.icache.tagLayout = kagura::TagLayoutKind::Signature;
         c.dcache.tagLayout = kagura::TagLayoutKind::Signature;
     }},
    {"camp",
     [](SimConfig &c) {
         c.icache.replacement = kagura::ReplKind::Camp;
         c.dcache.replacement = kagura::ReplKind::Camp;
     }},
    {"crrip",
     [](SimConfig &c) {
         c.icache.replacement = kagura::ReplKind::Crrip;
         c.dcache.replacement = kagura::ReplKind::Crrip;
     }},
    // The 1024x4:acc+kagura shared L2.
    {"l2",
     [](SimConfig &c) {
         c.enableL2 = true;
         c.l2.sizeBytes = 1024;
         c.l2.ways = 4;
         c.l2Governor = kagura::GovernorKind::Acc;
         c.l2Kagura = true;
     }},
    {"nvmr", [](SimConfig &c) { c.ehs = EhsKind::NvMR; }},
    {"sweepcache", [](SimConfig &c) { c.ehs = EhsKind::SweepCache; }},
    {"taskbased", [](SimConfig &c) { c.ehs = EhsKind::TaskBased; }},
    {"specpersist", [](SimConfig &c) { c.ehs = EhsKind::SpecPersist; }},
};

/**
 * ACC+Kagura on the sweep apps with one axis changed per cell, at
 * designAxesSeeds seeds each, then NvMR and SweepCache at the default
 * trace seed for the EHS parity goldens.
 */
JobList
designAxesList(std::uint64_t seed)
{
    JobList list;
    list.apps = sweepApps();
    for (const Axis &axis : designAxes) {
        for (const std::string &app : list.apps) {
            for (unsigned rep = 0; rep < designAxesSeeds; ++rep) {
                SimConfig cfg = kagura::accKaguraConfig(app);
                axis.apply(cfg);
                cfg.traceSeed = traceSeedFor(seed, rep);
                push(list, std::move(cfg));
            }
        }
    }
    for (const std::string &app : list.apps) {
        SimConfig nvmr = kagura::accKaguraConfig(app);
        nvmr.ehs = EhsKind::NvMR;
        push(list, std::move(nvmr), SimJob::Kind::Plain, app + "/nvmr");
        SimConfig sweep = kagura::accKaguraConfig(app);
        sweep.ehs = EhsKind::SweepCache;
        push(list, std::move(sweep), SimJob::Kind::Plain, app + "/sweep");
    }
    return list;
}

/** Parse "app col=hex col=hex col=hex" rows into @p out. */
bool
readGoldenFile(const std::string &path, Goldens &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    unsigned rows = 0;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string app, cell;
        if (!(fields >> app))
            continue;
        unsigned cells = 0;
        while (fields >> cell) {
            const std::size_t eq = cell.find('=');
            if (eq == std::string::npos || eq + 1 >= cell.size()) {
                error = "malformed cell '" + cell + "' in " + path;
                return false;
            }
            try {
                out[app + "/" + cell.substr(0, eq)] =
                    std::stoull(cell.substr(eq + 1), nullptr, 16);
            } catch (const std::exception &) {
                error = "malformed fingerprint '" + cell + "' in " + path;
                return false;
            }
            ++cells;
        }
        if (cells != 3) {
            error = "row for " + app + " in " + path + " has " +
                    std::to_string(cells) + " cells, expected 3";
            return false;
        }
        ++rows;
    }
    if (rows == 0) {
        error = path + " holds no rows";
        return false;
    }
    return true;
}

/** Designs that resume at the failure point never re-execute. */
bool
resumesInPlace(EhsKind kind)
{
    return kind == EhsKind::NvsramCache || kind == EhsKind::NvMR;
}

/** Simulations one job runs (ideal jobs run two phases). */
unsigned
simulationsIn(const SimJob &job)
{
    return job.kind == SimJob::Kind::Plain ? 1u : 2u;
}

/** FNV-1a of the canonical result encoding (the goldens' format). */
std::uint64_t
fingerprint(const SimResult &result)
{
    return kagura::runner::fnv1a64(kagura::runner::encodeResult(result));
}

} // namespace

JobList
jobsFor(WorkloadId workload, std::uint64_t seed)
{
    switch (workload) {
      case WorkloadId::PaperSuite:
      case WorkloadId::WarmReplay:
        return paperSuite(seed);
      case WorkloadId::DesignAxes:
        return designAxesList(seed);
    }
    return {};
}

std::uint64_t
simulatedInstructions(const JobList &list,
                      const std::vector<SimResult> &results)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < results.size(); ++i)
        total += results[i].committedInstructions *
                 simulationsIn(list.jobs[i]);
    return total;
}

Pass
runPass(const JobList &list, const std::string &dir)
{
    namespace runner = kagura::runner;
    runner::CacheStore &store = runner::CacheStore::global();
    store.setDirectory(dir);
    store.setEnabled(true);
    const runner::TelemetrySnapshot before = runner::progress().snapshot();
    const double start = nowSeconds();
    Pass pass;
    pass.results = runner::runJobs(list.jobs);
    pass.wallSeconds = nowSeconds() - start;
    const runner::TelemetrySnapshot after = runner::progress().snapshot();
    pass.jobSeconds = after.jobSeconds - before.jobSeconds;
    pass.cacheHits = after.cacheHits - before.cacheHits;
    pass.cacheMisses = after.cacheMisses - before.cacheMisses;
    return pass;
}

bool
loadGoldens(const std::string &root, Goldens &out, std::string &error)
{
    out.clear();
    const std::string dir = root + "/tests/data/";
    return readGoldenFile(dir + "golden_results.txt", out, error) &&
           readGoldenFile(dir + "golden_ehs_results.txt", out, error);
}

void
CheckTally::note(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (firstFailures.size() < 8)
        firstFailures.push_back(what);
}

bool
checkJob(const SimJob &job, const std::string &golden_key,
         const SimResult &result, const Goldens &goldens, std::string &why)
{
    const kagura::Workload &wl = kagura::cachedWorkload(job.config.workload);
    const auto label = [&job] {
        return job.config.describe() + " [" +
               kagura::runner::jobKindName(job.kind) + "]";
    };
    if (!golden_key.empty()) {
        const auto it = goldens.find(golden_key);
        if (it == goldens.end()) {
            why = label() + ": no golden " + golden_key;
            return false;
        }
        if (fingerprint(result) != it->second) {
            why = label() + ": fingerprint differs from golden " + golden_key;
            return false;
        }
    }
    const std::uint64_t expected = wl.committedInstructions();
    const bool instrs_ok =
        resumesInPlace(job.config.ehs)
            ? result.committedInstructions == expected
            : result.committedInstructions >= expected;
    if (!instrs_ok) {
        why = label() + ": committed " +
              std::to_string(result.committedInstructions) +
              " instructions, workload has " + std::to_string(expected);
        return false;
    }
    if (result.workload != job.config.workload || result.wallCycles == 0 ||
        result.wallCycles < result.activeCycles ||
        !(result.ledger.grandTotal() > 0.0)) {
        why = label() + ": failed sanity (workload, wall cycles, energy)";
        return false;
    }
    return true;
}

void
checkResults(const JobList &list, const std::vector<SimResult> &results,
             const Goldens &goldens, CheckTally &tally)
{
    for (std::size_t i = 0; i < list.jobs.size(); ++i) {
        std::string why;
        const bool ok = i < results.size() &&
                        checkJob(list.jobs[i], list.goldenKeys[i],
                                 results[i], goldens, why);
        tally.note(ok, why.empty() ? "missing result" : why);
    }
}

} // namespace perfbench
