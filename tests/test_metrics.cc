/**
 * @file
 * Tests for the src/metrics telemetry subsystem: record values and
 * histogram bucketing, the sorted snapshot and its duplicate-name
 * check, JSON-lines exports round-tripping through the schema
 * validator, default-sink label merging, write errors reaching the
 * harness, and -- most importantly -- that attaching a sink does not
 * perturb simulation determinism.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "runner/cache_store.hh"
#include "metrics/registry.hh"
#include "metrics/sink.hh"
#include "metrics/validate.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace kagura
{
namespace
{

/**
 * Hermetic fixture: any default sink or harness label a test installs
 * is detached afterwards, and runner knobs touched by the determinism
 * test are restored, so tests neither leak exports into each other
 * nor into a developer's environment.
 */
class MetricsTests : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        informEnabled = false;
        savedRepeats = suiteRepeats;
        savedEnabled = runner::CacheStore::global().enabled();
        savedDir = runner::CacheStore::global().directory();
        savedLabels = metrics::defaultLabels();
        runner::CacheStore::global().setEnabled(false);
    }

    void
    TearDown() override
    {
        metrics::setDefaultSink(nullptr);
        metrics::defaultLabels() = savedLabels;
        suiteRepeats = savedRepeats;
        runner::setJobCount(0);
        runner::CacheStore::global().setDirectory(savedDir);
        runner::CacheStore::global().setEnabled(savedEnabled);
    }

    /** Fresh file path under the gtest temp root. */
    std::string
    tempFile(const std::string &leaf)
    {
        const std::string path = testing::TempDir() + "kagura-" + leaf;
        std::filesystem::remove(path);
        return path;
    }

    /** Whole-file slurp; empty string when unreadable. */
    static std::string
    slurp(const std::string &path)
    {
        std::ifstream f(path, std::ios::binary);
        std::ostringstream out;
        out << f.rdbuf();
        return out.str();
    }

    unsigned savedRepeats = 0;
    bool savedEnabled = false;
    std::string savedDir;
    std::map<std::string, std::string> savedLabels;
};

TEST_F(MetricsTests, CounterAndGaugeHoldExactValues)
{
    metrics::MetricSet set;
    set.counter("c", 42);
    set.counter("big", (std::uint64_t{1} << 53) - 1);
    set.gauge("g", -1.5);

    const std::vector<metrics::Record> snap = set.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "big");
    EXPECT_EQ(snap[0].kind, metrics::RecordKind::Counter);
    EXPECT_EQ(snap[0].value, 9007199254740991.0); // exact below 2^53
    EXPECT_EQ(snap[1].name, "c");
    EXPECT_EQ(snap[1].value, 42.0);
    EXPECT_EQ(snap[2].kind, metrics::RecordKind::Gauge);
    EXPECT_EQ(snap[2].value, -1.5);
}

TEST_F(MetricsTests, HistogramBucketsSamplesAtInclusiveEdges)
{
    metrics::MetricSet set;
    const std::vector<double> samples = {0.5, 1.0, 1.001, 4.0, 100.0, -3.0};
    set.histogram("h", {1.0, 2.0, 4.0}, samples);

    const std::vector<metrics::Record> snap = set.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    const metrics::Record &h = snap[0];
    EXPECT_EQ(h.kind, metrics::RecordKind::Histogram);
    ASSERT_EQ(h.bucketCounts.size(), 4u); // three finite + overflow
    // 0.5, 1.0 (edges are inclusive) and -3.0 (negative samples
    // clamp into bucket 0); 1.001; 4.0; 100.0 in the overflow.
    EXPECT_EQ(h.bucketCounts[0], 3u);
    EXPECT_EQ(h.bucketCounts[1], 1u);
    EXPECT_EQ(h.bucketCounts[2], 1u);
    EXPECT_EQ(h.bucketCounts[3], 1u);
    EXPECT_EQ(h.count, 6u);
    EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.001 + 4.0 + 100.0 - 3.0);
    EXPECT_EQ(h.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
}

TEST_F(MetricsTests, SnapshotRejectsANameRecordedTwice)
{
    metrics::MetricSet set;
    set.counter("sim/loads", 1);
    set.gauge("sim/other", 2.0);
    set.gauge("sim/loads", 3.0);
    EXPECT_DEATH(set.snapshot(), "metric 'sim/loads' recorded twice");
}

TEST_F(MetricsTests, SnapshotIsSortedAndCarriesRegistryLabels)
{
    metrics::MetricSet set;
    set.labels()["workload"] = "crc32";
    set.counter("z/last", 1);
    set.gauge("a/first", 2.0);
    const double seconds = 0.01;
    set.histogram("m/mid", {1.0}, {&seconds, 1},
                  metrics::RecordKind::Timer);

    const std::vector<metrics::Record> snap = set.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "a/first");
    EXPECT_EQ(snap[1].name, "m/mid");
    EXPECT_EQ(snap[2].name, "z/last");
    EXPECT_EQ(snap[0].kind, metrics::RecordKind::Gauge);
    EXPECT_EQ(snap[0].value, 2.0);
    EXPECT_EQ(snap[1].kind, metrics::RecordKind::Timer);
    EXPECT_EQ(snap[1].count, 1u);
    for (const metrics::Record &rec : snap)
        EXPECT_EQ(rec.labels.at("workload"), "crc32");
}

TEST_F(MetricsTests, JsonExportRoundTripsThroughValidator)
{
    metrics::MetricSet set;
    set.labels()["workload"] = "needs \"escaping\"\n";
    set.counter("sim/loads", 3);
    set.gauge("sim/gcp", -0.125);
    const double sample = 2.0;
    const double seconds = 0.25;
    set.histogram("sim/hist", {1.0, 8.0}, {&sample, 1});
    set.histogram("sim/run_seconds", {0.1, 1.0}, {&seconds, 1},
                  metrics::RecordKind::Timer);

    const std::string path = tempFile("roundtrip.jsonl");
    {
        auto sink = metrics::JsonLinesSink::open(path);
        ASSERT_NE(sink, nullptr);
        for (const metrics::Record &rec : set.snapshot())
            sink->write(rec);
        EXPECT_TRUE(sink->flush());
    }

    const std::string text = slurp(path);
    std::string error;
    std::size_t records = 0;
    EXPECT_TRUE(metrics::validateRecordStream(text, &error, &records))
        << error;
    EXPECT_EQ(records, 4u);
    // Spot-check the wire format the validator blessed.
    EXPECT_NE(text.find("\"schema\":\"kagura.metrics/v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"kind\":\"histogram\""), std::string::npos);
    EXPECT_NE(text.find("{\"le\":\"inf\""), std::string::npos);
    EXPECT_NE(text.find("\\\"escaping\\\"\\n"), std::string::npos);
}

TEST_F(MetricsTests, ValidatorRejectsMalformedRecords)
{
    std::string error;
    EXPECT_FALSE(metrics::validateRecordLine("not json", &error));
    EXPECT_FALSE(metrics::validateRecordLine("{}", &error));
    EXPECT_FALSE(metrics::validateRecordLine(
        "{\"schema\":\"kagura.metrics/v2\",\"kind\":\"counter\","
        "\"name\":\"x\",\"labels\":{},\"value\":1}",
        &error));
    EXPECT_FALSE(metrics::validateRecordLine(
        "{\"schema\":\"kagura.metrics/v1\",\"kind\":\"nonsense\","
        "\"name\":\"x\",\"labels\":{},\"value\":1}",
        &error));

    // A multi-line stream reports the offending line number.
    const std::string good =
        "{\"schema\":\"kagura.metrics/v1\",\"kind\":\"counter\","
        "\"name\":\"x\",\"labels\":{},\"value\":1}";
    EXPECT_TRUE(metrics::validateRecordLine(good, &error)) << error;
    EXPECT_FALSE(
        metrics::validateRecordStream(good + "\n\nbroken\n", &error));
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST_F(MetricsTests, SinkReportsAWriteErrorAtFlushAndDetach)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    metrics::Record rec;
    rec.name = "sim/loads";

    auto sink = metrics::JsonLinesSink::open("/dev/full");
    ASSERT_NE(sink, nullptr);
    sink->write(rec);
    EXPECT_FALSE(sink->flush());
    EXPECT_FALSE(sink->flush()); // the error sticks

    metrics::setDefaultSink(metrics::JsonLinesSink::open("/dev/full"));
    metrics::emitRecord(rec);
    EXPECT_FALSE(metrics::setDefaultSink(nullptr));

    // A harness that armed the export exits nonzero, saying so.
    EXPECT_EXIT(
        {
            metrics::armExport("/dev/full", false, "unit_test");
            metrics::emitRecord(rec);
            metrics::finishExport();
        },
        testing::ExitedWithCode(1), "cannot write metrics output");
}

TEST_F(MetricsTests, DefaultSinkMergesHarnessLabels)
{
    const std::string path = tempFile("default-sink.jsonl");
    metrics::setDefaultSink(metrics::JsonLinesSink::open(path));
    ASSERT_NE(metrics::defaultSink(), nullptr);
    metrics::defaultLabels()["bench"] = "unit_test";
    metrics::defaultLabels()["app"] = "default-app";

    metrics::emitHeadline("bench/speedup_pct", 12.5,
                          {{"app", "crc32"}});
    EXPECT_TRUE(metrics::setDefaultSink(nullptr));

    const std::string text = slurp(path);
    std::string error;
    std::size_t records = 0;
    EXPECT_TRUE(metrics::validateRecordStream(text, &error, &records))
        << error;
    EXPECT_EQ(records, 1u);
    EXPECT_NE(text.find("\"kind\":\"headline\""), std::string::npos);
    EXPECT_NE(text.find("\"bench\":\"unit_test\""), std::string::npos);
    // The record-local app label wins over the harness default.
    EXPECT_NE(text.find("\"app\":\"crc32\""), std::string::npos);
    EXPECT_EQ(text.find("default-app"), std::string::npos);

    // With the sink detached, emission is a silent no-op.
    metrics::emitHeadline("bench/ignored", 1.0);
}

TEST_F(MetricsTests, SimulatorPopulatesItsMetricSet)
{
    SimConfig cfg = accKaguraConfig("crc32");
    Simulator sim(cfg);
    const SimResult r = sim.run();

    const metrics::MetricSet set = sim.metricSet();
    const std::vector<metrics::Record> snap = set.snapshot();
    ASSERT_FALSE(snap.empty());
    EXPECT_EQ(set.labels().at("workload"), "crc32");

    // The exported counters mirror the SimResult exactly.
    double instructions = -1.0;
    double wall = -1.0;
    for (const metrics::Record &rec : snap) {
        if (rec.name == "sim/instructions")
            instructions = rec.value;
        else if (rec.name == "sim/wall_cycles")
            wall = rec.value;
    }
    EXPECT_EQ(instructions,
              static_cast<double>(r.committedInstructions));
    EXPECT_EQ(wall, static_cast<double>(r.wallCycles));
}

TEST_F(MetricsTests, MetricNamesAreUniqueInEveryConfiguration)
{
    // Every replacement policy x tag layout at both L1s and a 1024x4
    // ACC L2, the five EHS designs taking turns across those cells:
    // each hook appends its names once, so the snapshot's
    // duplicate-name check must hold in every cell.
    std::size_t cell = 0;
    for (const auto &repl : replKindNames) {
        for (const auto &tags : tagLayoutNames) {
            SimConfig cfg = accKaguraConfig("crc32");
            cfg.ehs = ehsKindNames[cell++ % std::size(ehsKindNames)].value;
            cfg.enableL2 = true;
            cfg.l2Governor = GovernorKind::Acc;
            for (CacheConfig *level : {&cfg.icache, &cfg.dcache, &cfg.l2}) {
                level->replacement = repl.value;
                level->tagLayout = tags.value;
            }
            Simulator sim(cfg);
            sim.run();
            const std::vector<metrics::Record> snap =
                sim.metricSet().snapshot();
            EXPECT_GT(snap.size(), 0u) << cfg.describe();
            for (std::size_t i = 1; i < snap.size(); ++i)
                EXPECT_LT(snap[i - 1].name, snap[i].name)
                    << cfg.describe();
        }
    }
    EXPECT_GE(cell, std::size(ehsKindNames)); // every design ran
}

TEST_F(MetricsTests, SinkAttachedRunsStayBitIdenticalAcrossJobCounts)
{
    suiteRepeats = 2;
    const std::vector<std::string> apps = {"crc32", "adpcm_d"};

    // Telemetry must be write-only: results with an armed sink, at
    // any worker count, match a bare serial run bit for bit.
    runner::setJobCount(1);
    const SuiteResult bare = runSuite("t", accKaguraConfig, apps);

    const std::string path = tempFile("determinism.jsonl");
    metrics::setDefaultSink(metrics::JsonLinesSink::open(path));
    ASSERT_NE(metrics::defaultSink(), nullptr);
    runner::setJobCount(1);
    const SuiteResult serial = runSuite("t", accKaguraConfig, apps);
    runner::setJobCount(8);
    const SuiteResult parallel = runSuite("t", accKaguraConfig, apps);
    EXPECT_TRUE(metrics::setDefaultSink(nullptr));

    ASSERT_EQ(bare.apps.size(), serial.apps.size());
    ASSERT_EQ(bare.apps.size(), parallel.apps.size());
    for (std::size_t a = 0; a < bare.apps.size(); ++a) {
        ASSERT_EQ(bare.apps[a].runs.size(),
                  serial.apps[a].runs.size());
        ASSERT_EQ(bare.apps[a].runs.size(),
                  parallel.apps[a].runs.size());
        for (std::size_t i = 0; i < bare.apps[a].runs.size(); ++i) {
            EXPECT_TRUE(exactlyEqual(bare.apps[a].runs[i],
                                     serial.apps[a].runs[i]))
                << bare.apps[a].app << " run " << i
                << " differs once a sink is attached";
            EXPECT_TRUE(exactlyEqual(serial.apps[a].runs[i],
                                     parallel.apps[a].runs[i]))
                << bare.apps[a].app << " run " << i
                << " differs between --jobs 1 and --jobs 8";
        }
    }
}

} // namespace
} // namespace kagura
