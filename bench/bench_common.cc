#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/logging.hh"
#include "common/stats.hh"
#include "metrics/json.hh"
#include "metrics/sink.hh"
#include "runner/cache_store.hh"
#include "runner/env.hh"
#include "runner/progress.hh"
#include "runner/runner.hh"
#include "trace/trace_workload.hh"

namespace kagura
{
namespace bench
{

namespace
{

/**
 * speedupGeomean() of the last "ACC+Kagura" column printSpeedupTable()
 * printed for the running bench; 0 = none. The driver resets it per
 * bench; fig13's value is the summary's fig13_speedup_geomean.
 */
double tableAccKaguraGeomean = 0.0;

/** The driver's own command-line state (the rest is applied as read). */
struct Options
{
    std::vector<std::string> names;
    bool list = false;
    std::string summaryPath;
    std::string metricsOut;
    bool timeseries = false;
};

/** What one bench left behind, for the TOTAL line and the summary. */
struct BenchRun
{
    const char *name = nullptr;
    int status = 0;
    /** The runner counters this bench moved. */
    runner::TelemetrySnapshot telemetry;
    /** Its ACC+Kagura speedup-table geomean; 0 when it printed none. */
    double accKaguraGeomean = 0.0;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

void
badValue(const char *flag, const char *value)
{
    fatal("bad value '%s' for %s (see --help)", value, flag);
}

/**
 * Read the command line: bench names land in the result, every
 * harness knob (jobs, repeats, cache, apps, traces, time series) is
 * applied on the spot.
 */
Options
parseFlags(int argc, char **argv)
{
    Options opts;
    std::string apps_csv;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", arg);
            return argv[++i];
        };
        const auto count = [&]() {
            const char *v = value();
            unsigned n = 0;
            if (!runner::parseCount(v, n))
                badValue(arg, v);
            return n;
        };
        if (std::strcmp(arg, "--jobs") == 0) {
            runner::setJobCount(count());
        } else if (std::strcmp(arg, "--repeats") == 0) {
            suiteRepeats = count();
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            runner::CacheStore::global().setEnabled(false);
        } else if (std::strcmp(arg, "--metrics-out") == 0) {
            opts.metricsOut = value();
        } else if (std::strcmp(arg, "--metrics-timeseries") == 0) {
            opts.timeseries = true;
        } else if (std::strcmp(arg, "--apps") == 0) {
            apps_csv = value();
        } else if (std::strcmp(arg, "--register-trace") == 0) {
            const std::string spec = value();
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == spec.size())
                fatal("--register-trace wants NAME=FILE, got '%s'",
                      spec.c_str());
            trace::registerTraceFile(spec.substr(0, eq),
                                     spec.substr(eq + 1));
        } else if (std::strcmp(arg, "--summary") == 0) {
            opts.summaryPath = value();
        } else if (std::strcmp(arg, "--list") == 0) {
            opts.list = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf(
                "usage: %s [flags] NAME... | all | --list\n"
                "flags: --jobs N, --repeats N, --no-cache, "
                "--metrics-out PATH, --metrics-timeseries,\n"
                "       --register-trace NAME=FILE, --apps A,B,..., "
                "--summary PATH (with all)\n",
                argv[0]);
            std::exit(0);
        } else if (arg[0] == '-') {
            fatal("unknown flag '%s' (see --help)", arg);
        } else {
            opts.names.emplace_back(arg);
        }
    }
    if (apps_csv.empty()) {
        if (const char *env = std::getenv("KAGURA_APPS"))
            apps_csv = env;
    }
    if (!apps_csv.empty())
        setSuiteApps(parseAppList(apps_csv));
    return opts;
}

/** `all` order: fig* tab* abl* ext*, then anything else; by name within. */
void
sortForAll(std::vector<BenchEntry> &entries)
{
    const auto rank = [](const BenchEntry &e) {
        static const char *const prefixes[] = {"fig", "tab", "abl", "ext"};
        for (std::size_t i = 0; i < std::size(prefixes); ++i) {
            if (std::strncmp(e.name, prefixes[i], 3) == 0)
                return i;
        }
        return std::size(prefixes);
    };
    std::sort(entries.begin(), entries.end(),
              [&](const BenchEntry &a, const BenchEntry &b) {
                  const std::size_t ra = rank(a), rb = rank(b);
                  return ra != rb ? ra < rb
                                  : std::strcmp(a.name, b.name) < 0;
              });
    for (std::size_t i = 1; i < entries.size(); ++i) {
        if (std::strcmp(entries[i - 1].name, entries[i].name) == 0)
            panic("bench '%s' is registered twice", entries[i].name);
    }
}

/** The benches @p names select from @p entries; fatal on a bad name. */
std::vector<BenchEntry>
pickBenches(const std::vector<BenchEntry> &entries,
            const std::vector<std::string> &names)
{
    if (names.size() == 1 && names[0] == "all")
        return entries;
    std::vector<BenchEntry> picked;
    for (const std::string &name : names) {
        const auto it = std::find_if(
            entries.begin(), entries.end(),
            [&](const BenchEntry &e) { return name == e.name; });
        if (it == entries.end()) {
            std::string valid;
            for (const BenchEntry &e : entries)
                valid += std::string(valid.empty() ? "" : ", ") + e.name;
            fatal("unknown bench '%s'%s; valid names: all, %s",
                  name.c_str(),
                  name == "all" ? " (`all` stands alone)" : "",
                  valid.c_str());
        }
        picked.push_back(*it);
    }
    return picked;
}

/** Banner, body, then the bench's own [runner] line. */
BenchRun
runOne(const BenchEntry &entry)
{
    if (metrics::defaultSink())
        metrics::defaultLabels()["bench"] = entry.name;
    tableAccKaguraGeomean = 0.0;
    std::printf("\n==============================================="
                "=========================\n");
    std::printf("%s -- %s\n", entry.experimentId, entry.title);
    std::printf("Paper reports: %s\n", entry.paperSummary);
    std::printf("================================================"
                "========================\n");

    BenchRun run;
    run.name = entry.name;
    const runner::TelemetrySnapshot before = runner::progress().snapshot();
    const auto start = std::chrono::steady_clock::now();
    run.status = entry.body();
    const double wall = secondsSince(start);
    run.telemetry = runner::progress().snapshot().since(before);
    run.accKaguraGeomean = tableAccKaguraGeomean;

    std::printf("%s wall=%.3fs\n",
                runner::summaryLine(run.telemetry, runner::jobCount())
                    .c_str(),
                wall);
    std::fflush(stdout);
    runner::emitTelemetry(run.telemetry);
    return run;
}

/**
 * The kagura.bench/v1 sweep summary: run totals, the fig13 ACC+Kagura
 * speedup geomean (null when fig13 did not print one), and the
 * per-bench runner counters keyed by bench name.
 */
void
writeSummary(const std::string &path, const std::vector<BenchRun> &runs,
             const runner::TelemetrySnapshot &total, double wall)
{
    using metrics::json::number;
    long passed = 0;
    double fig13 = 0.0;
    std::map<std::string, const BenchRun *> by_name;
    for (const BenchRun &run : runs) {
        passed += run.status == 0;
        if (std::strncmp(run.name, "fig13", 5) == 0 &&
            run.accKaguraGeomean > 0.0)
            fig13 = run.accKaguraGeomean;
        by_name[run.name] = &run;
    }
    const char *pr = std::getenv("BENCH_PR");
    const double lookups =
        static_cast<double>(total.cacheHits + total.cacheMisses);
    std::string out = "{\n";
    out += "  \"schema\": \"kagura.bench/v1\",\n";
    out += "  \"pr\": \"" +
           metrics::json::escape(pr ? pr : "unnamed") + "\",\n";
    out += "  \"total_wall_seconds\": " + number(wall) + ",\n";
    out += "  \"benches_passed\": " + number(passed) + ",\n";
    out += "  \"benches_failed\": " +
           number(static_cast<double>(runs.size()) - passed) + ",\n";
    out += "  \"sims_run\": " +
           number(static_cast<double>(total.simulations)) + ",\n";
    out += "  \"runner_jobs\": " +
           number(static_cast<double>(total.jobsDone)) + ",\n";
    out += "  \"cache_hits\": " +
           number(static_cast<double>(total.cacheHits)) + ",\n";
    out += "  \"cache_lookups\": " + number(lookups) + ",\n";
    out += "  \"cache_hit_rate\": " + number(total.hitRate()) + ",\n";
    out += "  \"fig13_speedup_geomean\": " +
           (fig13 > 0.0 ? number(fig13) : std::string("null")) + ",\n";
    out += "  \"benches\": {";
    const char *sep = "\n";
    for (const auto &[name, run] : by_name) {
        const runner::TelemetrySnapshot &t = run->telemetry;
        out += sep;
        sep = ",\n";
        out += "    \"" + metrics::json::escape(name) +
               "\": {\"job_seconds\": " + number(t.jobSeconds) +
               ", \"jobs\": " + number(static_cast<double>(t.jobsDone)) +
               ", \"sims\": " +
               number(static_cast<double>(t.simulations)) + "}";
    }
    out += by_name.empty() ? "}\n}\n" : "\n  }\n}\n";

    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f && std::fwrite(out.data(), 1, out.size(), f) == out.size();
    if (f && std::fclose(f) != 0)
        ok = false;
    if (!ok)
        fatal("cannot write summary '%s'", path.c_str());
}

} // namespace

std::vector<BenchEntry> &
registry()
{
    static std::vector<BenchEntry> entries;
    return entries;
}

int
runBenches(int argc, char **argv, std::vector<BenchEntry> entries)
{
    const Options opts = parseFlags(argc, argv);
    sortForAll(entries);
    if (opts.list) {
        for (const BenchEntry &e : entries)
            std::printf("%-28s %s -- %s\n", e.name, e.experimentId,
                        e.title);
        return 0;
    }
    if (opts.names.empty())
        fatal("name a bench, `all`, or --list (see --help)");
    const std::vector<BenchEntry> picked = pickBenches(entries, opts.names);
    if (!opts.summaryPath.empty() && opts.names[0] != "all")
        fatal("--summary writes the whole-sweep summary; it needs `all`");
    metrics::armExport(opts.metricsOut, opts.timeseries);

    // Benches run quiet: status chatter would drown the tables.
    const bool was_informing = informEnabled;
    informEnabled = false;
    const runner::TelemetrySnapshot sweep_before =
        runner::progress().snapshot();
    const auto sweep_start = std::chrono::steady_clock::now();
    std::vector<BenchRun> runs;
    for (const BenchEntry &entry : picked)
        runs.push_back(runOne(entry));
    const double wall = secondsSince(sweep_start);
    const runner::TelemetrySnapshot total =
        runner::progress().snapshot().since(sweep_before);
    informEnabled = was_informing;

    std::vector<const char *> failed;
    for (const BenchRun &run : runs) {
        if (run.status != 0)
            failed.push_back(run.name);
    }
    if (runs.size() > 1) {
        std::printf("\nTOTAL  wall=%.1fs  jobs=%llu  sims=%llu  "
                    "cache_hits=%llu/%llu (%.1f%%)  threads=%u  "
                    "repeats=%u\n",
                    wall, static_cast<unsigned long long>(total.jobsDone),
                    static_cast<unsigned long long>(total.simulations),
                    static_cast<unsigned long long>(total.cacheHits),
                    static_cast<unsigned long long>(total.cacheHits +
                                                    total.cacheMisses),
                    total.hitRate() * 100.0, runner::jobCount(),
                    suiteRepeats);
        std::printf("SUMMARY  passed=%zu failed=%zu\n",
                    runs.size() - failed.size(), failed.size());
        for (const char *name : failed)
            std::printf("  FAILED  %s\n", name);
    }
    if (metrics::defaultSink()) {
        // The whole run's counters belong to no one bench.
        metrics::defaultLabels().erase("bench");
        runner::emitTelemetry(total);
    }
    metrics::finishExport();
    if (!opts.summaryPath.empty())
        writeSummary(opts.summaryPath, runs, total, wall);
    std::fflush(stdout);
    return failed.empty() ? 0 : 1;
}

void
emitCell(const char *name, const std::string &app,
         const std::string &config, double value)
{
    metrics::Record rec;
    rec.kind = metrics::RecordKind::Gauge;
    rec.name = name;
    rec.labels = {{"app", app}, {"config", config}};
    rec.value = value;
    metrics::emitRecord(std::move(rec));
}

double
speedupGeomean(const SuiteResult &cfg, const SuiteResult &baseline)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const AppResult &entry : baseline.apps) {
        const double ratio =
            1.0 + speedupPct(cfg.forApp(entry.app), entry) / 100.0;
        if (ratio <= 0.0)
            continue; // degenerate; keep the geomean defined
        log_sum += std::log(ratio);
        ++n;
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 1.0;
}

namespace
{

/** Mean-over-runs total energy (pJ) summed over a suite's apps. */
double
suiteEnergyPj(const SuiteResult &suite)
{
    double total = 0.0;
    for (const AppResult &entry : suite.apps) {
        double app_sum = 0.0;
        for (const SimResult &run : entry.runs)
            app_sum += run.ledger.grandTotal();
        if (!entry.runs.empty())
            total += app_sum / static_cast<double>(entry.runs.size());
    }
    return total;
}

} // namespace

std::vector<std::string>
parseAppList(const std::string &csv)
{
    std::vector<std::string> apps;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string name = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (!workloadExists(name))
            fatal("unknown workload '%s' in app selection; %s",
                  name.c_str(), knownWorkloadsSummary().c_str());
        apps.push_back(name);
    }
    if (apps.empty())
        fatal("empty app selection; %s",
              knownWorkloadsSummary().c_str());
    return apps;
}

void
printSpeedupTable(const SuiteResult &baseline,
                  const std::vector<SuiteResult> &configs)
{
    TextTable table;
    std::vector<std::string> header = {"app"};
    for (const SuiteResult &cfg : configs)
        header.push_back(cfg.label);
    table.setHeader(header);

    for (const AppResult &entry : baseline.apps) {
        std::vector<std::string> row = {entry.app};
        for (const SuiteResult &cfg : configs)
            row.push_back(
                TextTable::pct(speedupPct(cfg.forApp(entry.app), entry)));
        table.addRow(row);
    }
    std::vector<std::string> avg = {"AVERAGE"};
    for (const SuiteResult &cfg : configs)
        avg.push_back(TextTable::pct(meanSpeedupPct(cfg, baseline)));
    table.addRow(avg);
    table.print();

    for (const SuiteResult &cfg : configs) {
        const double geomean = speedupGeomean(cfg, baseline);
        if (cfg.label == "ACC+Kagura")
            tableAccKaguraGeomean = geomean;
        if (!metrics::defaultSink())
            continue;
        for (const AppResult &entry : baseline.apps)
            emitCell("bench/speedup_pct", entry.app, cfg.label,
                     speedupPct(cfg.forApp(entry.app), entry));
        metrics::emitHeadline("bench/speedup_avg_pct",
                              meanSpeedupPct(cfg, baseline),
                              {{"config", cfg.label}});
        metrics::emitHeadline("bench/speedup_geomean", geomean,
                              {{"config", cfg.label}});
    }
}

void
printPairedDeltaTable(const SuiteResult &baseline,
                      const SuiteResult &reference,
                      const SuiteResult &candidate)
{
    // Fixed, so a rerun prints the same intervals.
    constexpr std::uint64_t ciSeed = 0x6b616775ULL;
    const auto row = [&](const std::string &label,
                         const std::vector<std::vector<double>> &deltas,
                         TextTable &table) {
        const BootstrapCi ci = bootstrapMeanCi(deltas, ciSeed);
        bool single = false;
        for (const std::vector<double> &seeds : deltas)
            single = single || seeds.size() < 2;
        const char *verdict =
            single || !ci.resolved()
                ? "unresolved"
                : (ci.lo > 0.0 ? candidate.label : reference.label)
                      .c_str();
        table.addRow({label, TextTable::pct(ci.mean),
                      "[" + TextTable::pct(ci.lo) + ", " +
                          TextTable::pct(ci.hi) + "]",
                      verdict});
    };

    TextTable table;
    table.setHeader({"app", candidate.label + " - " + reference.label,
                     "95% CI", "ahead"});
    std::vector<std::vector<double>> suite;
    for (const AppResult &entry : baseline.apps) {
        const AppResult &ref = reference.forApp(entry.app);
        const AppResult &cand = candidate.forApp(entry.app);
        std::vector<double> deltas;
        for (std::size_t i = 0; i < entry.runs.size(); ++i)
            deltas.push_back(speedupPct(cand.runs[i], entry.runs[i]) -
                             speedupPct(ref.runs[i], entry.runs[i]));
        row(entry.app, {deltas}, table);
        suite.push_back(std::move(deltas));
    }
    row("SUITE", suite, table);
    table.print();
}

void
printEnergyTable(const SuiteResult &baseline,
                 const std::vector<SuiteResult> &configs)
{
    TextTable table;
    std::vector<std::string> header = {"app"};
    for (const SuiteResult &cfg : configs)
        header.push_back(cfg.label + " dE");
    table.setHeader(header);

    for (const AppResult &entry : baseline.apps) {
        std::vector<std::string> row = {entry.app};
        for (const SuiteResult &cfg : configs)
            row.push_back(TextTable::pct(
                energyDeltaPct(cfg.forApp(entry.app), entry)));
        table.addRow(row);
    }
    std::vector<std::string> avg = {"AVERAGE"};
    for (const SuiteResult &cfg : configs)
        avg.push_back(TextTable::pct(meanEnergyDeltaPct(cfg, baseline)));
    table.addRow(avg);
    table.print();

    if (!metrics::defaultSink())
        return;
    metrics::emitHeadline("bench/energy_total_pj",
                          suiteEnergyPj(baseline),
                          {{"config", baseline.label}});
    for (const SuiteResult &cfg : configs) {
        for (const AppResult &entry : baseline.apps)
            emitCell("bench/energy_delta_pct", entry.app, cfg.label,
                     energyDeltaPct(cfg.forApp(entry.app), entry));
        metrics::emitHeadline("bench/energy_delta_avg_pct",
                              meanEnergyDeltaPct(cfg, baseline),
                              {{"config", cfg.label}});
        metrics::emitHeadline("bench/energy_total_pj",
                              suiteEnergyPj(cfg),
                              {{"config", cfg.label}});
    }
}

const std::vector<std::string> &
sweepApps()
{
    static const std::vector<std::string> apps = {
        "adpcm_d", "blowfish", "crc32",  "fft",
        "g721d",   "jpegd",    "susans", "typeset",
    };
    return apps;
}

} // namespace bench
} // namespace kagura
