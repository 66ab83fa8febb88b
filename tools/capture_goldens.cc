/**
 * @file
 * capture_goldens -- regenerate the behaviour-preservation fixtures
 * used by tests/test_golden_identity.cc.
 *
 * Run from a tree whose behaviour is the one to pin (i.e. BEFORE a
 * refactor lands, or right after an intentional behaviour change that
 * bumped simulatorVersionSalt):
 *
 *   capture_goldens standard > tests/data/golden_results.txt
 *   capture_goldens ehs      > tests/data/golden_ehs_results.txt
 *   capture_goldens axes     > tests/data/golden_axes_results.txt
 *   capture_goldens metrics  > tests/data/golden_metric_set.txt
 *
 * "standard" emits one row per suite workload with the FNV-1a
 * fingerprint of the canonical SimResult encoding under the baseline,
 * ACC, and ACC+Kagura configs. "ehs" emits one row per workload with
 * the ACC+Kagura config run under each of the three EHS persistence
 * designs (NVSRAMCache, NvMR, SweepCache) -- the parity table the
 * component-refactor suite checks. "axes" emits one `AXIS APP
 * fingerprint` row per design axis of tools/golden_axes.hh and app;
 * "metrics" prints the full-platform run's MetricSet
 * (golden::metricLines).
 *
 * Every mode takes an optional `--tag-layout KIND` axis (baseline,
 * superblock, signature) applied to both caches of every config, so
 * future layout work can pin its own fingerprints:
 *
 *   capture_goldens standard --tag-layout superblock \
 *       > tests/data/golden_results_superblock.txt
 *
 * The committed golden files are captured with the (default) baseline
 * layout, whose behaviour is pinned bit-identical to the
 * pre-subsystem cache.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "golden_axes.hh"
#include "runner/config_hash.hh"
#include "runner/result_codec.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "tags/kind.hh"

using namespace kagura;

namespace
{

/** The --tag-layout axis, applied to every captured config. */
TagLayoutKind tagLayout = TagLayoutKind::Baseline;

SimConfig
withLayout(SimConfig config)
{
    config.icache.tagLayout = tagLayout;
    config.dcache.tagLayout = tagLayout;
    return config;
}

std::uint64_t
fingerprint(const SimConfig &config)
{
    Simulator sim(withLayout(config));
    return runner::fnv1a64(runner::encodeResult(sim.run()));
}

int
captureStandard()
{
    for (const std::string &app : suiteApps()) {
        std::printf("%s base=%016llx acc=%016llx kagura=%016llx\n",
                    app.c_str(),
                    static_cast<unsigned long long>(
                        fingerprint(baselineConfig(app))),
                    static_cast<unsigned long long>(
                        fingerprint(accConfig(app))),
                    static_cast<unsigned long long>(
                        fingerprint(accKaguraConfig(app))));
        std::fflush(stdout);
    }
    return 0;
}

int
captureEhs()
{
    for (const std::string &app : suiteApps()) {
        SimConfig nvsram = accKaguraConfig(app);
        nvsram.ehs = EhsKind::NvsramCache;
        SimConfig nvmr = accKaguraConfig(app);
        nvmr.ehs = EhsKind::NvMR;
        SimConfig sweep = accKaguraConfig(app);
        sweep.ehs = EhsKind::SweepCache;
        std::printf("%s nvsram=%016llx nvmr=%016llx sweep=%016llx\n",
                    app.c_str(),
                    static_cast<unsigned long long>(fingerprint(nvsram)),
                    static_cast<unsigned long long>(fingerprint(nvmr)),
                    static_cast<unsigned long long>(fingerprint(sweep)));
        std::fflush(stdout);
    }
    return 0;
}

int
captureAxes()
{
    for (const golden::Axis &axis : golden::axes()) {
        for (const std::string &app : golden::axisApps()) {
            std::printf("%s %s %016llx\n", axis.name, app.c_str(),
                        static_cast<unsigned long long>(
                            fingerprint(axis.make(app))));
            std::fflush(stdout);
        }
    }
    return 0;
}

int
captureMetrics()
{
    Simulator sim(withLayout(golden::fullPlatformConfig()));
    sim.run();
    std::fputs(golden::metricLines(sim.metricSet()).c_str(), stdout);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: capture_goldens standard|ehs|axes|metrics "
                 "[--tag-layout KIND]\n"
                 "  standard  golden_results.txt rows "
                 "(baseline/ACC/ACC+Kagura)\n"
                 "  ehs       golden_ehs_results.txt rows "
                 "(NVSRAM/NvMR/SweepCache under ACC+Kagura)\n"
                 "  axes      golden_axes_results.txt rows "
                 "(design axes x apps)\n"
                 "  metrics   golden_metric_set.txt "
                 "(full-platform MetricSet)\n"
                 "  --tag-layout KIND  baseline | superblock | "
                 "signature (both caches; default baseline)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    informEnabled = false;
    const char *mode = argc > 1 ? argv[1] : "";
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tag-layout") == 0 && i + 1 < argc) {
            const auto kind = enumFromName(tagLayoutNames, argv[++i]);
            if (!kind) {
                std::fprintf(stderr, "unknown tag layout '%s'\n",
                             argv[i]);
                return usage();
            }
            tagLayout = *kind;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            return usage();
        }
    }
    if (std::strcmp(mode, "standard") == 0)
        return captureStandard();
    if (std::strcmp(mode, "ehs") == 0)
        return captureEhs();
    if (std::strcmp(mode, "axes") == 0)
        return captureAxes();
    if (std::strcmp(mode, "metrics") == 0)
        return captureMetrics();
    return usage();
}
