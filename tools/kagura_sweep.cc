/**
 * @file
 * kagura_sweep -- in-process sweep grids and result-cache maintenance.
 *
 * Subcommands:
 *   grid         expand a capacitor x trace x compressor x EHS x L2
 *                grid and run it through runner::runJobs()
 *   cache stats  result-cache statistics (entries, bytes, shard skew)
 *   cache gc     trim the result cache by size and/or age
 *
 * Grids share the content-addressed result cache (KAGURA_CACHE_DIR)
 * with every bench binary, so rerunning an interrupted grid resumes
 * it: finished jobs come back as cache hits.
 *
 * Examples:
 *   kagura_sweep grid --apps crc32,dijkstra --compressors bdi,fpc \
 *       --cap-uf 4.7,10
 *   kagura_sweep cache gc --max-bytes 512M --max-age 30d
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/spelling.hh"
#include "runner/cache_maint.hh"
#include "runner/cache_store.hh"
#include "runner/progress.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"

using namespace kagura;

namespace
{

void
usage()
{
    std::printf(
        "kagura_sweep -- in-process sweep grids and cache maintenance\n"
        "\n"
        "usage: kagura_sweep COMMAND [options]\n"
        "\n"
        "grid [--apps A,B|all] [--compressors C,..] [--ehs E,..]\n"
        "     [--cap-uf X,..] [--traces T,..] [--l2 L,..] [--seeds N]\n"
        "     [--kagura]\n"
        "  expand the cross product and run it in-process; a rerun\n"
        "  replays finished jobs from the result cache. Axis values\n"
        "  (case-insensitive):\n"
        "    --compressors  %s\n"
        "    --ehs          %s\n"
        "    --traces       %s\n"
        "    --l2           none or SIZExWAYS[:GOVERNOR[+kagura]]\n"
        "                   (e.g. none,1024x4,1024x4:acc+kagura)\n"
        "cache stats [--dir PATH]\n"
        "cache gc [--dir PATH] [--max-bytes N[K|M|G]] [--max-age N[h|d]]\n",
        enumNameList(compressorKindNames, ",").c_str(),
        enumNameList(ehsKindNames, ",").c_str(),
        enumNameList(traceKindNames, ",").c_str());
}

/** "512M" -> bytes; suffixes K/M/G (binary). */
std::uint64_t
parseBytes(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || value < 0)
        fatal("bad byte count '%s'", text.c_str());
    double scale = 1;
    if (*end == 'K' || *end == 'k')
        scale = 1024.0;
    else if (*end == 'M' || *end == 'm')
        scale = 1024.0 * 1024;
    else if (*end == 'G' || *end == 'g')
        scale = 1024.0 * 1024 * 1024;
    else if (*end != '\0')
        fatal("bad byte suffix in '%s'", text.c_str());
    return static_cast<std::uint64_t>(value * scale);
}

/** "12h" / "30d" / "3600" (seconds) -> seconds. */
std::uint64_t
parseAge(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || value < 0)
        fatal("bad age '%s'", text.c_str());
    double scale = 1;
    if (*end == 's')
        scale = 1;
    else if (*end == 'm')
        scale = 60;
    else if (*end == 'h')
        scale = 3600;
    else if (*end == 'd')
        scale = 86400;
    else if (*end != '\0')
        fatal("bad age suffix in '%s'", text.c_str());
    return static_cast<std::uint64_t>(value * scale);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** Simple flag cursor over argv after the subcommand. */
struct Args
{
    int argc;
    char **argv;
    int i;

    bool more() const { return i < argc; }
    std::string next() { return argv[i++]; }

    std::string
    value(const std::string &flag)
    {
        if (i >= argc)
            fatal("%s needs a value", flag.c_str());
        return argv[i++];
    }
};

int
cmdGrid(Args &args)
{
    // Every axis value is checked as it is read, so a typo fails
    // before any job is expanded.
    const auto named = [&](const std::string &flag, const auto &table) {
        std::vector<decltype(table[0].value)> values;
        for (const std::string &name : splitList(args.value(flag))) {
            const auto value = enumFromName(table, name);
            if (!value)
                fatal("grid: bad value '%s' for %s", name.c_str(),
                      flag.c_str());
            values.push_back(*value);
        }
        return values;
    };
    const SimConfig defaults;
    std::vector<std::string> apps;
    std::vector<CompressorKind> comp = {defaults.compressor};
    std::vector<EhsKind> ehs = {defaults.ehs};
    std::vector<double> capUf = {4.7};
    std::vector<TraceKind> traceKinds = {defaults.trace};
    std::vector<std::string> l2Specs = {"none"};
    unsigned seeds = 1;
    bool withKagura = false;
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--apps") {
            const std::string v = args.value(arg);
            apps = v == "all" ? suiteApps() : splitList(v);
            for (const std::string &app : apps) {
                if (!workloadExists(app))
                    fatal("grid: unknown workload '%s'; %s", app.c_str(),
                          knownWorkloadsSummary().c_str());
            }
        } else if (arg == "--compressors") {
            comp = named(arg, compressorKindNames);
        } else if (arg == "--ehs") {
            ehs = named(arg, ehsKindNames);
        } else if (arg == "--cap-uf") {
            capUf.clear();
            for (const std::string &item : splitList(args.value(arg))) {
                double uf = 0;
                if (!parseNumber(item, uf) || !(uf > 0))
                    fatal("grid: bad value '%s' for --cap-uf (want a "
                          "positive capacitance in uF)",
                          item.c_str());
                capUf.push_back(uf);
            }
        } else if (arg == "--traces") {
            traceKinds = named(arg, traceKindNames);
        } else if (arg == "--l2") {
            l2Specs = splitList(args.value(arg));
            for (const std::string &spec : l2Specs) {
                SimConfig probe;
                std::string error;
                if (!applyL2Spec(spec, probe, error))
                    fatal("grid: %s", error.c_str());
            }
        } else if (arg == "--seeds") {
            const std::string v = args.value(arg);
            if (!parseNumber(v, seeds))
                fatal("grid: bad value '%s' for --seeds", v.c_str());
        } else if (arg == "--kagura") {
            withKagura = true;
        } else {
            fatal("grid: unknown option '%s'", arg.c_str());
        }
    }
    if (apps.empty())
        apps = {"crc32", "dijkstra", "sha"};
    if (seeds == 0)
        seeds = 1;
    if (l2Specs.empty())
        l2Specs = {"none"};

    std::vector<runner::SimJob> jobs;
    for (const std::string &app : apps) {
        for (CompressorKind c : comp) {
            for (EhsKind e : ehs) {
                for (double uf : capUf) {
                    for (TraceKind t : traceKinds) {
                      for (const std::string &l2 : l2Specs) {
                        for (unsigned s = 0; s < seeds; ++s) {
                            runner::SimJob job;
                            job.kind = runner::SimJob::Kind::Plain;
                            job.config = withKagura
                                             ? accKaguraConfig(app)
                                             : accConfig(app);
                            job.config.compressor = c;
                            job.config.ehs = e;
                            job.config.capacitor.capacitance =
                                uf * 1e-6;
                            job.config.trace = t;
                            std::string l2_error;
                            applyL2Spec(l2, job.config, l2_error);
                            job.config.traceSeed = suiteSeed(s);
                            jobs.push_back(std::move(job));
                        }
                      }
                    }
                }
            }
        }
    }
    inform("grid: %zu jobs (%zu apps x %zu compressors x %zu ehs x "
           "%zu capacitances x %zu traces x %zu l2 x %u seeds)",
           jobs.size(), apps.size(), comp.size(), ehs.size(),
           capUf.size(), traceKinds.size(), l2Specs.size(), seeds);

    const auto started = std::chrono::steady_clock::now();
    const std::vector<SimResult> results = runner::runJobs(jobs);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();

    double wallSum = 0;
    for (const SimResult &r : results)
        wallSum += static_cast<double>(r.wallCycles);
    inform("grid: %zu jobs in %.1fs; mean wall %.0f cycles", jobs.size(),
           elapsed, results.empty() ? 0.0 : wallSum / results.size());
    // The [runner] line counts the cache hits and the simulations the
    // misses ran; rerunning a finished grid is all hits.
    runner::printSummary(stdout, runner::jobCount());
    return 0;
}

int
cmdCache(Args &args)
{
    if (!args.more())
        fatal("cache: expected 'stats' or 'gc'");
    const std::string sub = args.next();
    std::string dir;
    runner::GcOptions gc;
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--dir")
            dir = args.value(arg);
        else if (arg == "--max-bytes" && sub == "gc")
            gc.maxBytes = parseBytes(args.value(arg));
        else if (arg == "--max-age" && sub == "gc")
            gc.maxAgeSeconds = parseAge(args.value(arg));
        else
            fatal("cache %s: unknown option '%s'", sub.c_str(),
                  arg.c_str());
    }
    runner::CacheStore &store = runner::CacheStore::global();
    if (!dir.empty())
        store.setDirectory(dir);

    if (sub == "stats") {
        const runner::CacheStatsReport s = runner::cacheStats(store);
        std::printf("directory:      %s\n", store.directory().c_str());
        std::printf("entries:        %llu\n",
                    static_cast<unsigned long long>(s.entries));
        std::printf("bytes:          %llu\n",
                    static_cast<unsigned long long>(s.totalBytes));
        std::printf("legacy (flat):  %llu\n",
                    static_cast<unsigned long long>(s.legacyEntries));
        std::printf("temp files:     %llu\n",
                    static_cast<unsigned long long>(s.tempFiles));
        std::printf("shards:         %u\n", s.shards);
        std::printf("shard min/max:  %llu / %llu\n",
                    static_cast<unsigned long long>(s.minShardEntries),
                    static_cast<unsigned long long>(s.maxShardEntries));
        std::printf("shard skew:     %.2f\n", s.skew());
        return 0;
    }
    if (sub == "gc") {
        if (gc.maxBytes == 0 && gc.maxAgeSeconds == 0)
            fatal("cache gc: need --max-bytes and/or --max-age");
        const runner::GcReport r = runner::cacheGc(store, gc);
        std::printf("scanned:        %llu entries\n",
                    static_cast<unsigned long long>(r.scanned));
        std::printf("deleted:        %llu entries, %llu bytes\n",
                    static_cast<unsigned long long>(r.deleted),
                    static_cast<unsigned long long>(r.deletedBytes));
        std::printf("stale temps:    %llu removed\n",
                    static_cast<unsigned long long>(r.tempFilesRemoved));
        std::printf("remaining:      %llu entries, %llu bytes\n",
                    static_cast<unsigned long long>(r.remainingEntries),
                    static_cast<unsigned long long>(r.remainingBytes));
        return 0;
    }
    fatal("cache: unknown subcommand '%s'", sub.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        usage();
        return 0;
    }

    Args args{argc, argv, 2};
    if (command == "grid")
        return cmdGrid(args);
    if (command == "cache")
        return cmdCache(args);
    usage();
    fatal("unknown command '%s'", command.c_str());
}
