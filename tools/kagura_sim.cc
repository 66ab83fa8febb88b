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
 *   kagura_sim --app susans --ehs sweepcache --cache-bytes 512
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
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
    std::puts(
        "kagura_sim -- intermittence-aware cache compression simulator\n"
        "\n"
        "usage: kagura_sim [options]\n"
        "\n"
        "workload:\n"
        "  --app NAME            application (default crc32; --list-apps)\n"
        "  --list-apps           print the 20 applications and exit\n"
        "\n"
        "compression stack:\n"
        "  --governor KIND       none | always | acc   (default none)\n"
        "  --compressor KIND     bdi | fpc | cpack | dzc (default bdi)\n"
        "  --kagura              wrap the governor in Kagura\n"
        "  --trigger KIND        mem | vol              (default mem)\n"
        "  --scheme KIND         aimd | miad | aiad | mimd\n"
        "  --increase-step PCT   R_thres additive step  (default 10)\n"
        "  --counter-bits N      reward counter width   (default 2)\n"
        "  --history-depth N     past cycles for N_prev (default 1)\n"
        "  --ideal               two-phase ideal oracle (aware)\n"
        "\n"
        "platform:\n"
        "  --ehs KIND            nvsram | nvmr | sweepcache |\n"
        "                        taskbased | specpersist\n"
        "  --cache-bytes N       I/D cache size each    (default 256)\n"
        "  --ways N              associativity          (default 2)\n"
        "  --block-bytes N       cache block size       (default 32)\n"
        "  --tag-layout KIND     baseline | superblock | signature\n"
        "                        (I/D tag organization, default\n"
        "                        baseline; see docs/TAGS.md)\n"
        "  --sig-bits N          signature width in bits for the\n"
        "                        signature tag layout (default 6)\n"
        "  --l2 SPEC             shared L2 between the L1s and NVM:\n"
        "                        none | SIZExWAYS[:GOVERNOR[+kagura]]\n"
        "                        e.g. 1024x4:acc+kagura (default none;\n"
        "                        see docs/HIERARCHY.md)\n"
        "  --l2-tag-layout KIND  L2 tag organization (default baseline)\n"
        "  --nvm KIND            reram | pcm | sttram\n"
        "  --nvm-mb N            NVM capacity in MB     (default 16)\n"
        "  --cap-uf X            capacitance in uF      (default 4.7)\n"
        "  --trace KIND          rfhome | solar | thermal | constant\n"
        "  --trace-seed N        ambient realisation seed\n"
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
        "  --verbose             per-run inform() status output\n");
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
        if (is("--help") || is("-h")) {
            usage();
            return 0;
        } else if (is("--list-apps")) {
            for (const std::string &name : workloadNames())
                std::puts(name.c_str());
            return 0;
        } else if (is("--app")) {
            cfg.workload = nextArg(argc, argv, i);
        } else if (is("--governor")) {
            const std::string v = nextArg(argc, argv, i);
            if (v == "none")
                cfg.governor = GovernorKind::None;
            else if (v == "always")
                cfg.governor = GovernorKind::Always;
            else if (v == "acc")
                cfg.governor = GovernorKind::Acc;
            else
                badValue("--governor", v.c_str());
        } else if (is("--compressor")) {
            const std::string v = nextArg(argc, argv, i);
            if (v == "bdi")
                cfg.compressor = CompressorKind::Bdi;
            else if (v == "fpc")
                cfg.compressor = CompressorKind::Fpc;
            else if (v == "cpack")
                cfg.compressor = CompressorKind::CPack;
            else if (v == "dzc")
                cfg.compressor = CompressorKind::Dzc;
            else
                badValue("--compressor", v.c_str());
        } else if (is("--kagura")) {
            cfg.enableKagura = true;
            if (cfg.governor == GovernorKind::None)
                cfg.governor = GovernorKind::Acc;
        } else if (is("--trigger")) {
            const std::string v = nextArg(argc, argv, i);
            if (v == "mem")
                cfg.kagura.trigger = TriggerKind::Memory;
            else if (v == "vol")
                cfg.kagura.trigger = TriggerKind::Voltage;
            else
                badValue("--trigger", v.c_str());
        } else if (is("--scheme")) {
            const std::string v = nextArg(argc, argv, i);
            if (v == "aimd")
                cfg.kagura.scheme = AdaptScheme::Aimd;
            else if (v == "miad")
                cfg.kagura.scheme = AdaptScheme::Miad;
            else if (v == "aiad")
                cfg.kagura.scheme = AdaptScheme::Aiad;
            else if (v == "mimd")
                cfg.kagura.scheme = AdaptScheme::Mimd;
            else
                badValue("--scheme", v.c_str());
        } else if (is("--increase-step")) {
            cfg.kagura.increaseStep =
                std::atof(nextArg(argc, argv, i)) / 100.0;
        } else if (is("--counter-bits")) {
            cfg.kagura.counterBits = static_cast<unsigned>(
                std::atoi(nextArg(argc, argv, i)));
        } else if (is("--history-depth")) {
            cfg.kagura.historyDepth = static_cast<unsigned>(
                std::atoi(nextArg(argc, argv, i)));
        } else if (is("--ideal")) {
            ideal = true;
            if (cfg.governor == GovernorKind::None)
                cfg.governor = GovernorKind::Acc;
        } else if (is("--ehs")) {
            const std::string v = nextArg(argc, argv, i);
            if (v == "nvsram")
                cfg.ehs = EhsKind::NvsramCache;
            else if (v == "nvmr")
                cfg.ehs = EhsKind::NvMR;
            else if (v == "sweepcache")
                cfg.ehs = EhsKind::SweepCache;
            else if (v == "taskbased")
                cfg.ehs = EhsKind::TaskBased;
            else if (v == "specpersist")
                cfg.ehs = EhsKind::SpecPersist;
            else
                badValue("--ehs", v.c_str());
        } else if (is("--cache-bytes")) {
            const unsigned bytes = static_cast<unsigned>(
                std::atoi(nextArg(argc, argv, i)));
            cfg.icache.sizeBytes = bytes;
            cfg.dcache.sizeBytes = bytes;
        } else if (is("--ways")) {
            const unsigned ways = static_cast<unsigned>(
                std::atoi(nextArg(argc, argv, i)));
            cfg.icache.ways = ways;
            cfg.dcache.ways = ways;
        } else if (is("--block-bytes")) {
            const unsigned block = static_cast<unsigned>(
                std::atoi(nextArg(argc, argv, i)));
            cfg.icache.blockSize = block;
            cfg.dcache.blockSize = block;
        } else if (is("--tag-layout")) {
            const char *v = nextArg(argc, argv, i);
            const auto kind = tags::parseTagLayoutKind(v);
            if (!kind)
                badValue("--tag-layout", v);
            cfg.icache.tagLayout = *kind;
            cfg.dcache.tagLayout = *kind;
        } else if (is("--sig-bits")) {
            const char *v = nextArg(argc, argv, i);
            const int bits = std::atoi(v);
            if (bits < 1)
                badValue("--sig-bits", v);
            cfg.icache.sigBits = static_cast<unsigned>(bits);
            cfg.dcache.sigBits = static_cast<unsigned>(bits);
            cfg.l2.sigBits = static_cast<unsigned>(bits);
        } else if (is("--l2")) {
            const char *v = nextArg(argc, argv, i);
            std::string error;
            if (!applyL2Spec(v, cfg, error))
                fatal("--l2: %s", error.c_str());
        } else if (is("--l2-tag-layout")) {
            const char *v = nextArg(argc, argv, i);
            const auto kind = tags::parseTagLayoutKind(v);
            if (!kind)
                badValue("--l2-tag-layout", v);
            cfg.l2.tagLayout = *kind;
        } else if (is("--nvm")) {
            const std::string v = nextArg(argc, argv, i);
            if (v == "reram")
                cfg.nvmType = NvmType::ReRam;
            else if (v == "pcm")
                cfg.nvmType = NvmType::Pcm;
            else if (v == "sttram")
                cfg.nvmType = NvmType::SttRam;
            else
                badValue("--nvm", v.c_str());
        } else if (is("--nvm-mb")) {
            cfg.nvmBytes = static_cast<std::uint64_t>(
                               std::atoi(nextArg(argc, argv, i)))
                           << 20;
        } else if (is("--cap-uf")) {
            cfg.capacitor.capacitance =
                std::atof(nextArg(argc, argv, i)) * 1e-6;
        } else if (is("--trace")) {
            const std::string v = nextArg(argc, argv, i);
            if (v == "rfhome")
                cfg.trace = TraceKind::RfHome;
            else if (v == "solar")
                cfg.trace = TraceKind::Solar;
            else if (v == "thermal")
                cfg.trace = TraceKind::Thermal;
            else if (v == "constant")
                cfg.trace = TraceKind::Constant;
            else
                badValue("--trace", v.c_str());
        } else if (is("--trace-seed")) {
            cfg.traceSeed = static_cast<std::uint64_t>(
                std::strtoull(nextArg(argc, argv, i), nullptr, 0));
        } else if (is("--decay")) {
            cfg.enableDecay = true;
        } else if (is("--prefetch")) {
            cfg.enablePrefetch = true;
        } else if (is("--infinite-energy")) {
            cfg.infiniteEnergy = true;
        } else if (is("--jobs")) {
            const char *v = nextArg(argc, argv, i);
            const long n = std::strtol(v, nullptr, 10);
            if (n < 1)
                badValue("--jobs", v);
            runner::setJobCount(static_cast<unsigned>(n));
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
