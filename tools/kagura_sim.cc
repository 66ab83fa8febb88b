/**
 * @file
 * kagura_sim -- command-line front end for the EHS simulator.
 *
 * Runs one application on a fully configurable platform and prints a
 * complete report (time, energy breakdown, cache behaviour, power
 * cycles, Kagura activity). Every knob the paper sweeps is a flag;
 * see --help.
 *
 * Examples:
 *   kagura_sim --app jpegd --governor acc --kagura
 *   kagura_sim --app g721d --compressor fpc --trace solar --cap-uf 10
 *   kagura_sim --app susans --ehs SweepCache --cache-bytes 512
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/spelling.hh"
#include "metrics/registry.hh"
#include "metrics/sink.hh"
#include "runner/cache_store.hh"
#include "runner/progress.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

using namespace kagura;

namespace
{

void
usage()
{
    const SimConfig defaults;
    const auto list = [](const auto &table) {
        return enumNameList(table, " | ");
    };
    std::printf(
        "kagura_sim -- intermittence-aware cache compression simulator\n"
        "\n"
        "usage: kagura_sim [options]\n"
        "\n"
        "workload:\n"
        "  --app NAME            application (default %s; --list-apps)\n"
        "  --list-apps           print the 20 applications and exit\n"
        "\n"
        "KIND names are case-insensitive.\n"
        "\n"
        "compression stack:\n"
        "  --governor KIND       %s (default %s)\n"
        "  --compressor KIND     %s\n"
        "                        (default %s)\n"
        "  --kagura              wrap the governor in Kagura\n"
        "  --trigger KIND        %s (default %s)\n"
        "  --scheme KIND         %s (default %s)\n"
        "  --increase-step PCT   R_thres additive step  (default 10)\n"
        "  --counter-bits N      reward counter width   (default 2)\n"
        "  --history-depth N     past cycles for N_prev (default 1)\n"
        "  --ideal               two-phase ideal oracle (aware)\n"
        "\n"
        "platform:\n"
        "  --ehs KIND            EHS design (default %s):\n"
        "                        %s\n"
        "  --cache-bytes N       I/D cache size each    (default 256)\n"
        "  --ways N              associativity          (default 2)\n"
        "  --block-bytes N       cache block size       (default 32)\n"
        "  --tag-layout KIND     %s\n"
        "                        (I/D tag organization, default\n"
        "                        %s; see docs/TAGS.md)\n"
        "  --sig-bits N          signature width in bits for the\n"
        "                        signature tag layout (default 6)\n"
        "  --l2 SPEC             shared L2 between the L1s and NVM:\n"
        "                        none | SIZExWAYS[:GOVERNOR[+kagura]]\n"
        "                        e.g. 1024x4:acc+kagura (default none;\n"
        "                        see docs/HIERARCHY.md)\n"
        "  --l2-tag-layout KIND  L2 tag organization (default %s)\n"
        "  --nvm KIND            %s (default %s)\n"
        "  --nvm-mb N            NVM capacity in MB     (default 16)\n"
        "  --cap-uf X            capacitance in uF      (default 4.7)\n"
        "  --trace KIND          %s\n"
        "                        (default %s)\n"
        "  --trace-seed N        ambient realisation seed (0x for hex)\n"
        "  --decay               enable EDBP dead-block prediction\n"
        "  --prefetch            enable IPEX prefetching\n"
        "  --infinite-energy     disable the power subsystem\n"
        "\n"
        "execution:\n"
        "  --jobs N              runner worker threads (default:\n"
        "                        KAGURA_JOBS env, else all cores)\n"
        "  --no-cache            skip the persistent result cache\n"
        "                        ($KAGURA_CACHE_DIR, default\n"
        "                        .kagura-cache/; KAGURA_CACHE=off)\n"
        "\n"
        "output:\n"
        "  --dump-config         print the resolved configuration's\n"
        "                        canonical key (the result-cache\n"
        "                        identity) and exit without simulating\n"
        "  --baseline            also run the no-compression baseline\n"
        "                        and report speedup/energy deltas\n"
        "  --json                emit the result as JSON instead\n"
        "  --json-cycles         include per-power-cycle records\n"
        "  --metrics-out PATH    write kagura.metrics/v1 records\n"
        "                        (.csv for CSV, else JSON lines;\n"
        "                        $KAGURA_METRICS_OUT)\n"
        "  --metrics-timeseries  also export one record per power\n"
        "                        cycle and series, labelled with\n"
        "                        cycle_index ($KAGURA_METRICS_TIMESERIES)\n"
        "  --quiet               suppress the banner\n"
        "  --verbose             per-run inform() status output\n",
        defaults.workload.c_str(), list(governorKindNames).c_str(),
        governorKindName(defaults.governor),
        list(compressorKindNames).c_str(),
        compressorKindName(defaults.compressor),
        list(triggerKindNames).c_str(),
        triggerKindName(defaults.kagura.trigger),
        list(adaptSchemeNames).c_str(),
        adaptSchemeName(defaults.kagura.scheme),
        ehsKindName(defaults.ehs), list(ehsKindNames).c_str(),
        list(tagLayoutNames).c_str(),
        tagLayoutName(defaults.dcache.tagLayout),
        tagLayoutName(defaults.l2.tagLayout), list(nvmTypeNames).c_str(),
        nvmTypeName(defaults.nvmType), list(traceKindNames).c_str(),
        traceKindName(defaults.trace));
}

[[noreturn]] void
badValue(const char *flag, const char *value)
{
    fatal("bad value '%s' for %s (see --help)", value, flag);
}

const char *
nextArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("flag %s needs a value (see --help)", argv[i]);
    return argv[++i];
}

void
printReport(const SimResult &r)
{
    std::printf("  committed instructions : %llu\n",
                static_cast<unsigned long long>(
                    r.committedInstructions));
    std::printf("  wall time              : %.3f ms\n",
                static_cast<double>(r.wallCycles) * 5e-6);
    std::printf("  active time            : %.3f ms (%.1f%% duty)\n",
                static_cast<double>(r.activeCycles) * 5e-6,
                r.wallCycles ? 100.0 *
                                   static_cast<double>(r.activeCycles) /
                                   static_cast<double>(r.wallCycles)
                             : 0.0);
    std::printf("  power failures         : %llu (%.0f instrs/cycle)\n",
                static_cast<unsigned long long>(r.powerFailures),
                r.instructionsPerCycle());
    std::printf("  total energy           : %.3f uJ\n",
                r.ledger.grandTotal() * 1e-6);
    for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c) {
        const auto cat = static_cast<EnergyCategory>(c);
        std::printf("    %-13s %8.1f nJ  (%5.2f%%)\n",
                    energyCategoryName(cat),
                    r.ledger.total(cat) * 1e-3,
                    r.ledger.total(cat) / r.ledger.grandTotal() * 100.0);
    }
    std::printf("  icache                 : %.3f%% miss, %llu "
                "compressions\n",
                r.icache.missRate() * 100.0,
                static_cast<unsigned long long>(r.icache.compressions));
    std::printf("  dcache                 : %.3f%% miss, %llu "
                "compressions\n",
                r.dcache.missRate() * 100.0,
                static_cast<unsigned long long>(r.dcache.compressions));
    if (r.l2cache.accesses) {
        std::printf("  l2cache                : %.3f%% miss, %llu "
                    "compressions, %llu writebacks\n",
                    r.l2cache.missRate() * 100.0,
                    static_cast<unsigned long long>(
                        r.l2cache.compressions),
                    static_cast<unsigned long long>(
                        r.l2cache.writebacks));
    }
    if (r.kagura.modeSwitches) {
        std::printf("  Kagura                 : %llu RM switches, %llu "
                    "mem ops in RM, %llu rewards / %llu punishments\n",
                    static_cast<unsigned long long>(
                        r.kagura.modeSwitches),
                    static_cast<unsigned long long>(r.kagura.memOpsInRm),
                    static_cast<unsigned long long>(r.kagura.rewards),
                    static_cast<unsigned long long>(
                        r.kagura.punishments));
    }
    if (r.oracleVetoes)
        std::printf("  oracle vetoes          : %llu\n",
                    static_cast<unsigned long long>(r.oracleVetoes));
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg;
    bool run_baseline = false;
    bool quiet = false;
    bool ideal = false;
    bool json = false;
    bool json_cycles = false;
    bool dump_config = false;
    std::string metrics_out;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto is = [arg](const char *flag) {
            return std::strcmp(arg, flag) == 0;
        };
        // Flag values: enum names through their tables, numbers
        // whole-string (both die with "bad value" otherwise).
        const auto named = [&](auto &out, const auto &table) {
            const char *v = nextArg(argc, argv, i);
            const auto parsed = enumFromName(table, v);
            if (!parsed)
                badValue(arg, v);
            out = *parsed;
        };
        const auto number = [&](auto &out, unsigned at_least = 0) {
            const char *v = nextArg(argc, argv, i);
            if (!parseNumber(std::string_view(v), out) || out < at_least)
                badValue(arg, v);
        };
        if (is("--help") || is("-h")) {
            usage();
            return 0;
        } else if (is("--list-apps")) {
            for (const std::string &name : workloadNames())
                std::puts(name.c_str());
            return 0;
        } else if (is("--app")) {
            cfg.workload = nextArg(argc, argv, i);
            if (!workloadExists(cfg.workload))
                fatal("unknown workload '%s' for --app; %s",
                      cfg.workload.c_str(),
                      knownWorkloadsSummary().c_str());
        } else if (is("--governor")) {
            named(cfg.governor, governorKindNames);
        } else if (is("--compressor")) {
            named(cfg.compressor, compressorKindNames);
        } else if (is("--kagura")) {
            cfg.enableKagura = true;
            if (cfg.governor == GovernorKind::None)
                cfg.governor = GovernorKind::Acc;
        } else if (is("--trigger")) {
            named(cfg.kagura.trigger, triggerKindNames);
        } else if (is("--scheme")) {
            named(cfg.kagura.scheme, adaptSchemeNames);
        } else if (is("--increase-step")) {
            double pct = 0;
            number(pct);
            cfg.kagura.increaseStep = pct / 100.0;
        } else if (is("--counter-bits")) {
            number(cfg.kagura.counterBits);
        } else if (is("--history-depth")) {
            number(cfg.kagura.historyDepth);
        } else if (is("--ideal")) {
            ideal = true;
            if (cfg.governor == GovernorKind::None)
                cfg.governor = GovernorKind::Acc;
        } else if (is("--ehs")) {
            named(cfg.ehs, ehsKindNames);
        } else if (is("--cache-bytes")) {
            number(cfg.icache.sizeBytes);
            cfg.dcache.sizeBytes = cfg.icache.sizeBytes;
        } else if (is("--ways")) {
            number(cfg.icache.ways);
            cfg.dcache.ways = cfg.icache.ways;
        } else if (is("--block-bytes")) {
            number(cfg.icache.blockSize);
            cfg.dcache.blockSize = cfg.icache.blockSize;
        } else if (is("--tag-layout")) {
            named(cfg.icache.tagLayout, tagLayoutNames);
            cfg.dcache.tagLayout = cfg.icache.tagLayout;
        } else if (is("--sig-bits")) {
            unsigned bits = 0;
            number(bits, 1);
            cfg.icache.sigBits = bits;
            cfg.dcache.sigBits = bits;
            cfg.l2.sigBits = bits;
        } else if (is("--l2")) {
            const char *v = nextArg(argc, argv, i);
            std::string error;
            if (!applyL2Spec(v, cfg, error))
                fatal("--l2: %s", error.c_str());
        } else if (is("--l2-tag-layout")) {
            named(cfg.l2.tagLayout, tagLayoutNames);
        } else if (is("--nvm")) {
            named(cfg.nvmType, nvmTypeNames);
        } else if (is("--nvm-mb")) {
            std::uint64_t mb = 0;
            number(mb);
            if (mb > (UINT64_MAX >> 20))
                badValue(arg, argv[i]);
            cfg.nvmBytes = mb << 20;
        } else if (is("--cap-uf")) {
            double uf = 0;
            number(uf);
            cfg.capacitor.capacitance = uf * 1e-6;
        } else if (is("--trace")) {
            named(cfg.trace, traceKindNames);
        } else if (is("--trace-seed")) {
            // The bases strtoull(..., 0) reads: 0x hex, 0 octal.
            std::string_view v = nextArg(argc, argv, i);
            int base = 10;
            if (v.starts_with("0x") || v.starts_with("0X")) {
                base = 16;
                v.remove_prefix(2);
            } else if (v.size() > 1 && v[0] == '0') {
                base = 8;
            }
            if (!parseNumber(v, cfg.traceSeed, base))
                badValue(arg, argv[i]);
        } else if (is("--decay")) {
            cfg.enableDecay = true;
        } else if (is("--prefetch")) {
            cfg.enablePrefetch = true;
        } else if (is("--infinite-energy")) {
            cfg.infiniteEnergy = true;
        } else if (is("--jobs")) {
            unsigned n = 0;
            number(n, 1);
            runner::setJobCount(n);
        } else if (is("--no-cache")) {
            runner::CacheStore::global().setEnabled(false);
        } else if (is("--metrics-out")) {
            metrics_out = nextArg(argc, argv, i);
        } else if (is("--metrics-timeseries")) {
            metrics::setTimeseriesEnabled(true);
        } else if (is("--dump-config")) {
            dump_config = true;
        } else if (is("--json")) {
            json = true;
        } else if (is("--json-cycles")) {
            json = true;
            json_cycles = true;
        } else if (is("--baseline")) {
            run_baseline = true;
        } else if (is("--quiet")) {
            quiet = true;
        } else if (is("--verbose")) {
            cfg.verbose = true;
        } else {
            fatal("unknown flag '%s' (see --help)", arg);
        }
    }

    if (dump_config) {
        // The canonical key is the simulation identity: the exact
        // string the runner hashes for its persistent result cache.
        std::fputs(cfg.canonicalKey().c_str(), stdout);
        return 0;
    }

    informEnabled = false;
    if (metrics_out.empty()) {
        if (const char *env = std::getenv("KAGURA_METRICS_OUT"))
            metrics_out = env;
    }
    if (const char *env = std::getenv("KAGURA_METRICS_TIMESERIES")) {
        if (std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0)
            metrics::setTimeseriesEnabled(true);
    }
    if (!metrics_out.empty()) {
        auto sink = metrics::openSink(metrics_out);
        if (!sink)
            fatal("cannot open metrics output '%s'",
                  metrics_out.c_str());
        metrics::defaultLabels()["bench"] = "kagura_sim";
        metrics::setDefaultSink(std::move(sink));
    }
    if (!quiet && !json)
        std::printf("kagura_sim: %s\n", cfg.describe().c_str());

    // Route through the runner so repeated CLI invocations of the
    // same configuration hit the persistent result cache.
    runner::SimJob job;
    job.config = cfg;
    if (ideal)
        job.kind = runner::SimJob::Kind::IdealAware;
    const SimResult result = runner::runJob(job);
    if (json)
        writeJson(result, stdout, json_cycles);
    else
        printReport(result);
    if (metrics::defaultSink()) {
        const std::map<std::string, std::string> labels = {
            {"app", result.workload}, {"config", cfg.describe()}};
        metrics::emitHeadline(
            "sim/wall_cycles",
            static_cast<double>(result.wallCycles), labels);
        metrics::emitHeadline(
            "sim/power_failures",
            static_cast<double>(result.powerFailures), labels);
        metrics::emitHeadline("sim/energy_total_pj",
                              result.ledger.grandTotal(), labels);
    }

    if (run_baseline && !json) {
        runner::SimJob base;
        base.config = cfg;
        base.config.governor = GovernorKind::None;
        base.config.enableKagura = false;
        base.config.oracle = OracleMode::Off;
        const SimResult b = runner::runJob(base);
        std::printf("\nvs no-compression baseline:\n");
        std::printf("  speedup : %+.2f%%\n", speedupPct(result, b));
        std::printf("  energy  : %+.2f%%\n", energyDeltaPct(result, b));
    }
    if (!quiet && !json)
        runner::printSummary(stdout, runner::jobCount());
    if (metrics::Sink *sink = metrics::defaultSink()) {
        metrics::emitRegistry(metrics::Registry::global());
        sink->flush();
    }
    return 0;
}
