/**
 * @file
 * kagura_trace -- record, inspect, convert, and replay
 * kagura.trace/v1 memory traces.
 *
 *   kagura_trace record KERNEL OUT.kgt      record a synthetic kernel
 *   kagura_trace replay FILE [options]      simulate a trace file
 *   kagura_trace info FILE                  print the header
 *   kagura_trace convert-champsim IN OUT [options]
 *                                           ingest a ChampSim trace
 *   kagura_trace validate FILE              full structural check
 *
 * Replay routes through the runner like every other workload, so
 * repeated replays of an unchanged file hit the persistent result
 * cache (the file's content hash is part of the cache key).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "common/spelling.hh"
#include "metrics/sink.hh"
#include "runner/cache_store.hh"
#include "runner/progress.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "trace/champsim.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_workload.hh"
#include "trace/trace_writer.hh"

using namespace kagura;

namespace
{

void
usage()
{
    std::puts(
        "kagura_trace -- kagura.trace/v1 record/replay front end\n"
        "\n"
        "usage:\n"
        "  kagura_trace record KERNEL OUT.kgt\n"
        "      record KERNEL's committed micro-op stream + initial\n"
        "      image (KERNEL: any name kagura_sim --list-apps shows)\n"
        "  kagura_trace replay FILE [--baseline] [--json] [--acc]\n"
        "               [--kagura] [--no-cache] [--metrics-out PATH]\n"
        "      simulate FILE on the Table I platform (default: the\n"
        "      no-compression baseline; --acc / --kagura select the\n"
        "      compressed stacks)\n"
        "  kagura_trace info FILE\n"
        "      print the parsed header and derived workload stats\n"
        "  kagura_trace convert-champsim IN OUT.kgt [--name N]\n"
        "               [--max-records N] [--data-window BYTES]\n"
        "               [--code-window BYTES]\n"
        "      convert an uncompressed ChampSim input trace\n"
        "  kagura_trace validate FILE\n"
        "      decode everything and verify the checksum; exit 1 on\n"
        "      any corruption\n");
}

const char *
nextArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal("flag %s needs a value (see --help)", argv[i]);
    return argv[++i];
}

/** The next argument as a parseIntegerLiteral() value; fatal if bad. */
void
integerArg(int argc, char **argv, int &i, std::uint64_t &out)
{
    const char *flag = argv[i];
    const char *v = nextArg(argc, argv, i);
    if (!parseIntegerLiteral(std::string_view(v), out))
        fatal("bad value '%s' for %s (see --help)", v, flag);
}

int
cmdRecord(int argc, char **argv)
{
    if (argc != 4)
        fatal("usage: kagura_trace record KERNEL OUT.kgt");
    const std::string kernel = argv[2];
    const std::string out = argv[3];
    const Workload &wl = cachedWorkload(kernel);
    trace::writeTrace(wl, out);
    const trace::TraceInfo info = trace::readTraceInfo(out);
    std::printf("recorded %s: %llu ops, %llu image bytes -> %s\n",
                wl.name().c_str(),
                static_cast<unsigned long long>(info.opCount),
                static_cast<unsigned long long>(info.imageBytes),
                out.c_str());
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 3)
        fatal("usage: kagura_trace info FILE");
    const std::string path = argv[2];
    const trace::TraceInfo info = trace::readTraceInfo(path);
    const Workload wl = trace::loadTraceWorkload(path);
    std::printf("file                   : %s\n", path.c_str());
    std::printf("format                 : kagura.trace/v%u\n",
                info.version);
    std::printf("workload               : %s\n", info.name.c_str());
    std::printf("block size             : %u bytes\n", info.blockSize);
    std::printf("micro-ops              : %llu\n",
                static_cast<unsigned long long>(info.opCount));
    std::printf("committed instructions : %llu\n",
                static_cast<unsigned long long>(
                    wl.committedInstructions()));
    std::printf("memory ops             : %llu\n",
                static_cast<unsigned long long>(wl.memoryOps()));
    std::printf("arithmetic intensity   : %.3f\n",
                wl.arithmeticIntensity());
    std::printf("image                  : %llu bytes in %llu extents\n",
                static_cast<unsigned long long>(info.imageBytes),
                static_cast<unsigned long long>(info.imageExtents));
    std::printf("encoded payload        : %llu + %llu bytes "
                "(%.2f bytes/op)\n",
                static_cast<unsigned long long>(info.opsBytes),
                static_cast<unsigned long long>(info.imagePayloadBytes),
                info.opCount ? static_cast<double>(info.opsBytes) /
                                   static_cast<double>(info.opCount)
                             : 0.0);
    return 0;
}

int
cmdValidate(int argc, char **argv)
{
    if (argc != 3)
        fatal("usage: kagura_trace validate FILE");
    std::string error;
    if (!trace::validateTrace(argv[2], &error)) {
        std::fprintf(stderr, "kagura_trace: %s\n", error.c_str());
        return 1;
    }
    std::printf("ok    %s\n", argv[2]);
    return 0;
}

int
cmdConvertChampSim(int argc, char **argv)
{
    if (argc < 4)
        fatal("usage: kagura_trace convert-champsim IN OUT.kgt "
              "[--name N] [--max-records N] [--data-window BYTES] "
              "[--code-window BYTES]");
    const std::string in = argv[2];
    const std::string out = argv[3];
    trace::ChampSimConvertOptions opts;
    for (int i = 4; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--name") == 0) {
            opts.name = nextArg(argc, argv, i);
        } else if (std::strcmp(arg, "--max-records") == 0) {
            integerArg(argc, argv, i, opts.maxRecords);
        } else if (std::strcmp(arg, "--data-window") == 0) {
            integerArg(argc, argv, i, opts.dataWindowBytes);
        } else if (std::strcmp(arg, "--code-window") == 0) {
            integerArg(argc, argv, i, opts.codeWindowBytes);
        } else {
            fatal("unknown flag '%s' (see --help)", arg);
        }
    }
    const trace::ChampSimConvertStats stats =
        trace::convertChampSim(in, out, opts);
    std::printf("converted %llu ChampSim records (%llu loads, "
                "%llu stores, %llu branches) -> %s\n",
                static_cast<unsigned long long>(stats.records),
                static_cast<unsigned long long>(stats.loads),
                static_cast<unsigned long long>(stats.stores),
                static_cast<unsigned long long>(stats.branches),
                out.c_str());
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 3)
        fatal("usage: kagura_trace replay FILE [options]");
    const std::string path = argv[2];
    bool json = false;
    bool run_baseline = false;
    std::string metrics_out;
    SimConfig cfg;
    cfg.workload = std::string(trace::workloadPrefix) + path;
    for (int i = 3; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else if (std::strcmp(arg, "--baseline") == 0) {
            run_baseline = true;
        } else if (std::strcmp(arg, "--acc") == 0) {
            cfg.governor = GovernorKind::Acc;
        } else if (std::strcmp(arg, "--kagura") == 0) {
            cfg.governor = GovernorKind::Acc;
            cfg.enableKagura = true;
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            runner::CacheStore::global().setEnabled(false);
        } else if (std::strcmp(arg, "--metrics-out") == 0) {
            metrics_out = nextArg(argc, argv, i);
        } else {
            fatal("unknown flag '%s' (see --help)", arg);
        }
    }
    // Validate before simulating so corruption surfaces as a clear
    // trace error, not a mid-run panic.
    std::string error;
    if (!trace::validateTrace(path, &error))
        fatal("%s", error.c_str());

    if (metrics_out.empty()) {
        if (const char *env = std::getenv("KAGURA_METRICS_OUT"))
            metrics_out = env;
    }
    if (!metrics_out.empty()) {
        auto sink = metrics::openSink(metrics_out);
        if (!sink)
            fatal("cannot open metrics output '%s'",
                  metrics_out.c_str());
        metrics::defaultLabels()["bench"] = "kagura_trace";
        metrics::setDefaultSink(std::move(sink));
    }

    runner::SimJob job;
    job.config = cfg;
    const SimResult result = runner::runJob(job);
    if (json) {
        writeJson(result, stdout);
    } else {
        std::printf("replayed %s (%s)\n", path.c_str(),
                    result.workload.c_str());
        std::printf("  committed instructions : %llu\n",
                    static_cast<unsigned long long>(
                        result.committedInstructions));
        std::printf("  wall cycles            : %llu\n",
                    static_cast<unsigned long long>(result.wallCycles));
        std::printf("  power failures         : %llu\n",
                    static_cast<unsigned long long>(
                        result.powerFailures));
        std::printf("  total energy           : %.3f uJ\n",
                    result.ledger.grandTotal() * 1e-6);
        std::printf("  dcache                 : %.3f%% miss, %llu "
                    "compressions\n",
                    result.dcache.missRate() * 100.0,
                    static_cast<unsigned long long>(
                        result.dcache.compressions));
    }
    if (metrics::defaultSink()) {
        const std::map<std::string, std::string> labels = {
            {"app", result.workload}, {"config", cfg.describe()}};
        metrics::emitHeadline(
            "trace/replay_wall_cycles",
            static_cast<double>(result.wallCycles), labels);
        metrics::emitHeadline(
            "trace/replay_energy_pj", result.ledger.grandTotal(),
            labels);
        metrics::emitHeadline(
            "trace/replay_power_failures",
            static_cast<double>(result.powerFailures), labels);
    }
    if (run_baseline && !json) {
        runner::SimJob base;
        base.config = cfg;
        base.config.governor = GovernorKind::None;
        base.config.enableKagura = false;
        const SimResult b = runner::runJob(base);
        std::printf("\nvs no-compression baseline:\n");
        std::printf("  speedup : %+.2f%%\n", speedupPct(result, b));
        std::printf("  energy  : %+.2f%%\n",
                    energyDeltaPct(result, b));
    }
    if (metrics::Sink *sink = metrics::defaultSink()) {
        runner::emitTelemetry(runner::progress().snapshot());
        sink->flush();
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    informEnabled = false;
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        usage();
        return argc < 2 ? 1 : 0;
    }
    const char *cmd = argv[1];
    if (std::strcmp(cmd, "record") == 0)
        return cmdRecord(argc, argv);
    if (std::strcmp(cmd, "replay") == 0)
        return cmdReplay(argc, argv);
    if (std::strcmp(cmd, "info") == 0)
        return cmdInfo(argc, argv);
    if (std::strcmp(cmd, "convert-champsim") == 0)
        return cmdConvertChampSim(argc, argv);
    if (std::strcmp(cmd, "validate") == 0)
        return cmdValidate(argc, argv);
    fatal("unknown command '%s' (see --help)", cmd);
}
