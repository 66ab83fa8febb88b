/**
 * @file
 * The design-axis golden rows and the pinned full-platform metric
 * set, shared by tools/capture_goldens.cc (which writes the fixtures)
 * and tests/test_golden_identity.cc (which checks them), so the two
 * can never disagree about what a row means.
 *
 * golden_results.txt and golden_ehs_results.txt pin the standard
 * configs and the three original EHS designs. The axes below cover
 * the paths those two files leave unpinned: Kagura's voltage trigger,
 * the L2 with its own Kagura controller under both triggers, decay,
 * prefetching, the checkpoint-free designs, the atomic I/O regions,
 * and the commit-boundary persists of every design with an L2.
 */

#ifndef KAGURA_TOOLS_GOLDEN_AXES_HH
#define KAGURA_TOOLS_GOLDEN_AXES_HH

#include <cstdio>
#include <string>
#include <vector>

#include "metrics/registry.hh"
#include "sim/experiment.hh"

namespace kagura
{
namespace golden
{

/** One design axis: ACC+Kagura with a feature (or two) switched on. */
struct Axis
{
    const char *name;
    SimConfig (*make)(const std::string &app);
};

/** The shared 1024x4 L2 with its own ACC chain and Kagura controller. */
inline SimConfig
withL2(SimConfig cfg)
{
    cfg.enableL2 = true;
    cfg.l2Governor = GovernorKind::Acc;
    cfg.l2Kagura = true;
    return cfg;
}

inline SimConfig
withEhs(SimConfig cfg, EhsKind kind)
{
    cfg.ehs = kind;
    return cfg;
}

inline SimConfig
withVoltageTrigger(SimConfig cfg)
{
    cfg.kagura.trigger = TriggerKind::Voltage;
    return cfg;
}

inline SimConfig
withRegions(SimConfig cfg)
{
    cfg.ioRegionInterval = 1500;
    return cfg;
}

/** The rows of golden_axes_results.txt, in file order. */
inline const std::vector<Axis> &
axes()
{
    static const std::vector<Axis> rows = {
        {"kagura-vol",
         [](const std::string &a) {
             return withVoltageTrigger(accKaguraConfig(a));
         }},
        {"l2-mem",
         [](const std::string &a) { return withL2(accKaguraConfig(a)); }},
        {"l2-vol",
         [](const std::string &a) {
             return withVoltageTrigger(withL2(accKaguraConfig(a)));
         }},
        {"decay",
         [](const std::string &a) {
             SimConfig cfg = accKaguraConfig(a);
             cfg.enableDecay = true;
             return cfg;
         }},
        {"decay-l2",
         [](const std::string &a) {
             SimConfig cfg = withL2(accKaguraConfig(a));
             cfg.enableDecay = true;
             return cfg;
         }},
        {"prefetch",
         [](const std::string &a) {
             SimConfig cfg = accKaguraConfig(a);
             cfg.enablePrefetch = true;
             return cfg;
         }},
        {"taskbased",
         [](const std::string &a) {
             return withEhs(accKaguraConfig(a), EhsKind::TaskBased);
         }},
        {"taskbased-l2",
         [](const std::string &a) {
             return withEhs(withL2(accKaguraConfig(a)),
                            EhsKind::TaskBased);
         }},
        {"specpersist",
         [](const std::string &a) {
             return withEhs(accKaguraConfig(a), EhsKind::SpecPersist);
         }},
        {"specpersist-l2",
         [](const std::string &a) {
             return withEhs(withL2(accKaguraConfig(a)),
                            EhsKind::SpecPersist);
         }},
        {"sweep-l2",
         [](const std::string &a) {
             return withEhs(withL2(accKaguraConfig(a)),
                            EhsKind::SweepCache);
         }},
        {"region",
         [](const std::string &a) {
             return withRegions(accKaguraConfig(a));
         }},
        {"region-l2",
         [](const std::string &a) {
             return withRegions(withL2(accKaguraConfig(a)));
         }},
    };
    return rows;
}

/** The apps every axis runs on. */
inline const std::vector<std::string> &
axisApps()
{
    // Store-heavy apps, so every commit boundary has dirty blocks to
    // persist.
    static const std::vector<std::string> apps = {"adpcm_c", "fft",
                                                  "jpegd", "qsort"};
    return apps;
}

/**
 * The full platform whose per-run MetricSet is pinned: ACC+Kagura on
 * both levels, decay, prefetching, and TaskBased persistence, so every
 * metric source (telemetry, both Kagura controllers, the compression
 * stack, the EHS design) contributes records.
 */
inline SimConfig
fullPlatformConfig()
{
    SimConfig cfg = withEhs(withL2(accKaguraConfig("jpegd")),
                            EhsKind::TaskBased);
    cfg.enableDecay = true;
    cfg.enablePrefetch = true;
    return cfg;
}

/**
 * @p set as text, one line per label and per record, sorted by name.
 * Doubles print round-trip exactly. Timers print their count only:
 * their sums are host wall time.
 */
inline std::string
metricLines(const metrics::MetricSet &set)
{
    std::string out;
    char buf[64];
    const auto number = [&](double v) {
        std::snprintf(buf, sizeof buf, " %.17g", v);
        out += buf;
    };
    const auto integer = [&](std::uint64_t v) {
        std::snprintf(buf, sizeof buf, " %llu",
                      static_cast<unsigned long long>(v));
        out += buf;
    };
    for (const auto &[key, value] : set.labels()) {
        out += "label ";
        out += key;
        out += '=';
        out += value;
        out += '\n';
    }
    for (const metrics::Record &r : set.snapshot()) {
        out += r.name;
        out += ' ';
        out += metrics::recordKindName(r.kind);
        switch (r.kind) {
          case metrics::RecordKind::Histogram:
            integer(r.count);
            number(r.sum);
            for (std::uint64_t c : r.bucketCounts)
                integer(c);
            break;
          case metrics::RecordKind::Timer:
            integer(r.count);
            break;
          default:
            number(r.value);
            break;
        }
        out += '\n';
    }
    return out;
}

} // namespace golden
} // namespace kagura

#endif // KAGURA_TOOLS_GOLDEN_AXES_HH
