/**
 * @file
 * Behaviour-preservation gates for the block-pipeline refactor.
 *
 * golden_results.txt pins a FNV-1a fingerprint of the canonical
 * SimResult encoding for every suite workload under the three standard
 * configs, captured before the Block/span/arena refactor landed. These
 * tests re-run every workload and require bit-identical results -- any
 * drift means simulatorVersionSalt must be bumped and the goldens
 * recaptured (see docs/ARCHITECTURE.md for the rule).
 *
 * The cache_fixture/ directory holds a real .kagura-cache entry
 * written by the pre-refactor simulator. Replaying it proves the
 * persistent result cache keeps hitting across the refactor: same key
 * text, same hash, same payload semantics, salt untouched.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "golden_axes.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/result_codec.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace kagura
{
namespace
{

std::string
dataPath(const char *name)
{
    return std::string(KAGURA_TEST_DATA_DIR) + "/" + name;
}

struct GoldenRow
{
    std::uint64_t base = 0;
    std::uint64_t acc = 0;
    std::uint64_t kagura = 0;
};

std::map<std::string, GoldenRow>
loadGoldens()
{
    std::map<std::string, GoldenRow> rows;
    std::ifstream in(dataPath("golden_results.txt"));
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string app, base, acc, kag;
        if (!(fields >> app >> base >> acc >> kag))
            continue;
        GoldenRow row;
        row.base = std::stoull(base.substr(base.find('=') + 1), nullptr, 16);
        row.acc = std::stoull(acc.substr(acc.find('=') + 1), nullptr, 16);
        row.kagura =
            std::stoull(kag.substr(kag.find('=') + 1), nullptr, 16);
        rows[app] = row;
    }
    return rows;
}

std::uint64_t
fingerprint(const SimConfig &config)
{
    Simulator sim(config);
    return runner::fnv1a64(runner::encodeResult(sim.run()));
}

TEST(GoldenIdentity, EveryWorkloadMatchesPreRefactorFingerprints)
{
    const auto goldens = loadGoldens();
    ASSERT_FALSE(goldens.empty()) << "golden_results.txt missing/empty";
    ASSERT_EQ(goldens.size(), suiteApps().size())
        << "golden table out of sync with the workload suite";

    for (const std::string &app : suiteApps()) {
        const auto it = goldens.find(app);
        ASSERT_NE(it, goldens.end()) << app << " missing from goldens";
        EXPECT_EQ(fingerprint(baselineConfig(app)), it->second.base)
            << app << " (baseline) drifted: bump simulatorVersionSalt "
            << "and recapture the goldens";
        EXPECT_EQ(fingerprint(accConfig(app)), it->second.acc)
            << app << " (ACC) drifted";
        EXPECT_EQ(fingerprint(accKaguraConfig(app)), it->second.kagura)
            << app << " (Kagura) drifted";
    }
}

// --- EHS-design parity -----------------------------------------------------
//
// golden_ehs_results.txt pins fingerprints for every suite workload
// under the full ACC+Kagura stack on each of the three EHS designs
// (NVSRAMCache, NvMR, SweepCache), captured before the component/hook
// decomposition. The designs exercise the powerFail/reboot/commit
// paths differently (JIT flush, store-through renaming with no-flush
// failures, region sweep + rollback), so together they pin the whole
// PowerStateMachine + EnergyMeter + checkpointCost() surface.

struct EhsGoldenRow
{
    std::uint64_t nvsram = 0;
    std::uint64_t nvmr = 0;
    std::uint64_t sweep = 0;
};

std::map<std::string, EhsGoldenRow>
loadEhsGoldens()
{
    std::map<std::string, EhsGoldenRow> rows;
    std::ifstream in(dataPath("golden_ehs_results.txt"));
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string app, nvsram, nvmr, sweep;
        if (!(fields >> app >> nvsram >> nvmr >> sweep))
            continue;
        EhsGoldenRow row;
        row.nvsram = std::stoull(nvsram.substr(nvsram.find('=') + 1),
                                 nullptr, 16);
        row.nvmr =
            std::stoull(nvmr.substr(nvmr.find('=') + 1), nullptr, 16);
        row.sweep =
            std::stoull(sweep.substr(sweep.find('=') + 1), nullptr, 16);
        rows[app] = row;
    }
    return rows;
}

SimConfig
ehsConfig(const std::string &app, EhsKind kind)
{
    SimConfig config = accKaguraConfig(app);
    config.ehs = kind;
    return config;
}

TEST(GoldenIdentity, EveryEhsDesignMatchesPreRefactorFingerprints)
{
    const auto goldens = loadEhsGoldens();
    ASSERT_FALSE(goldens.empty())
        << "golden_ehs_results.txt missing/empty";
    ASSERT_EQ(goldens.size(), suiteApps().size())
        << "EHS golden table out of sync with the workload suite";

    for (const std::string &app : suiteApps()) {
        const auto it = goldens.find(app);
        ASSERT_NE(it, goldens.end()) << app << " missing from goldens";
        EXPECT_EQ(fingerprint(ehsConfig(app, EhsKind::NvsramCache)),
                  it->second.nvsram)
            << app << " (NVSRAMCache) drifted: bump "
            << "simulatorVersionSalt and recapture the goldens";
        EXPECT_EQ(fingerprint(ehsConfig(app, EhsKind::NvMR)),
                  it->second.nvmr)
            << app << " (NvMR) drifted";
        EXPECT_EQ(fingerprint(ehsConfig(app, EhsKind::SweepCache)),
                  it->second.sweep)
            << app << " (SweepCache) drifted";
    }
}

// --- Design axes and the per-run metric set ------------------------------
//
// golden_axes_results.txt pins one fingerprint per design axis of
// tools/golden_axes.hh and app: the voltage trigger, the L2 and its
// Kagura controller, decay, prefetching, the checkpoint-free designs,
// atomic I/O regions, and every commit-boundary persist with an L2.
// golden_metric_set.txt pins the full-platform run's MetricSet.
// Regenerate both with `capture_goldens axes|metrics`.

std::string
readData(const char *name)
{
    std::ifstream in(dataPath(name));
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(GoldenIdentity, DesignAxesMatchTheirFingerprints)
{
    std::map<std::string, std::uint64_t> goldens;
    std::istringstream in(readData("golden_axes_results.txt"));
    std::string axis, app, hex;
    while (in >> axis >> app >> hex)
        goldens[axis + " " + app] = std::stoull(hex, nullptr, 16);
    ASSERT_EQ(goldens.size(),
              golden::axes().size() * golden::axisApps().size())
        << "golden_axes_results.txt out of sync with golden_axes.hh";

    for (const golden::Axis &row : golden::axes()) {
        for (const std::string &a : golden::axisApps()) {
            const std::string key = std::string(row.name) + " " + a;
            const auto it = goldens.find(key);
            ASSERT_NE(it, goldens.end()) << key << " missing";
            EXPECT_EQ(fingerprint(row.make(a)), it->second)
                << key << " drifted";
        }
    }
}

TEST(GoldenIdentity, FullPlatformMetricSetIsPinned)
{
    const std::string golden = readData("golden_metric_set.txt");
    ASSERT_FALSE(golden.empty()) << "golden_metric_set.txt missing";
    Simulator sim(golden::fullPlatformConfig());
    sim.run();
    EXPECT_EQ(golden::metricLines(sim.metricSet()), golden);
}

TEST(GoldenIdentity, EhsDesignsAreExactlyReproducible)
{
    // exactlyEqual over two fresh runs of each design: the layered
    // simulator must stay deterministic run-to-run, not just match a
    // one-time fingerprint.
    for (EhsKind kind :
         {EhsKind::NvsramCache, EhsKind::NvMR, EhsKind::SweepCache,
          EhsKind::TaskBased, EhsKind::SpecPersist}) {
        const SimConfig config = ehsConfig("crc32", kind);
        Simulator first(config);
        Simulator second(config);
        EXPECT_TRUE(exactlyEqual(first.run(), second.run()))
            << ehsKindName(kind) << " is not run-to-run deterministic";
    }
}

TEST(GoldenIdentity, SaltIsUntouchedByTheRefactor)
{
    // A refactor is behaviour-preserving, so the salt must still be
    // the value the fixtures were captured under (3: integer energy).
    EXPECT_EQ(runner::simulatorVersionSalt, 3u);
}

TEST(GoldenIdentity, PreRefactorCacheEntryStillHits)
{
    // The fixture was written by the pre-refactor binary for
    // accKaguraConfig("crc32"), job kind "plain".
    const SimConfig config = accKaguraConfig("crc32");

    // Key text must match byte-for-byte (canonicalKey + salt stable).
    const std::string fixtureKey = readData("cache_fixture_key.txt");
    ASSERT_FALSE(fixtureKey.empty());
    EXPECT_EQ(runner::jobKeyText(config, "plain"), fixtureKey)
        << "canonical key drifted; pre-refactor cache entries would "
        << "miss";

    // The store must find and verify the entry (a warm .kagura-cache
    // replays without recompute)...
    runner::CacheStore store(dataPath("cache_fixture"));
    const std::uint64_t hash = runner::jobHash(config, "plain");
    std::string payload;
    ASSERT_TRUE(store.lookup(hash, fixtureKey, payload))
        << "pre-refactor entry missed (hash or layout drifted)";

    // ...and its payload must decode to exactly what a fresh run
    // produces today.
    SimResult cached;
    ASSERT_TRUE(runner::decodeResult(payload, cached));
    Simulator sim(config);
    const SimResult fresh = sim.run();
    EXPECT_TRUE(exactlyEqual(cached, fresh))
        << "cached pre-refactor result differs from a fresh run";
}

} // namespace
} // namespace kagura
