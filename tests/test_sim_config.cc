/**
 * @file
 * Tests for SimConfig's canonical key and its inverse,
 * SimConfig::parse(): the round-trip law over default, heavily
 * non-default, every-replacement-policy and every-EHS-design
 * configs, typed rejection of malformed keys and missing trace
 * files, long trace paths, and the key's double formatting
 * (std::to_chars general/17 must print exactly what "%.17g" does).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/workload.hh"
#include "sim/experiment.hh"
#include "sim/sim_config.hh"
#include "trace/trace_workload.hh"
#include "trace/trace_writer.hh"

namespace kagura
{
namespace
{

/** Parse @p key and expect it to round-trip byte for byte. */
SimConfig
roundTrip(const std::string &key, const std::string &what)
{
    SimConfig parsed;
    std::string error;
    EXPECT_EQ(SimConfig::parse(key, parsed, error), ParseStatus::Ok)
        << what << ": " << error;
    EXPECT_EQ(parsed.canonicalKey(), key) << what;
    return parsed;
}

/** The value of the `name=` line in canonical-key text @p key. */
std::string
keyValue(const std::string &key, const std::string &name)
{
    const std::string text = "\n" + key;
    const std::string tag = "\n" + name + "=";
    const std::size_t start = text.find(tag);
    if (start == std::string::npos)
        return "<missing " + name + ">";
    const std::size_t value = start + tag.size();
    return text.substr(value, text.find('\n', value) - value);
}

std::string
printfG17(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

TEST(SimConfigParse, DefaultConfigRoundTrips)
{
    roundTrip(baselineConfig("crc32").canonicalKey(), "baseline");
}

TEST(SimConfigParse, HeavilyNonDefaultConfigRoundTrips)
{
    SimConfig config = accKaguraConfig("fft");
    config.compressor = CompressorKind::Fvc;
    config.ehs = EhsKind::SweepCache;
    config.nvmType = NvmType::SttRam;
    config.nvmBytes = 8ull * 1024 * 1024;
    config.trace = TraceKind::Thermal;
    config.traceSeed = 77;
    config.traceScale = 1.75;
    config.dcache.replacement = ReplKind::Fifo;
    config.dcache.ways = 4;
    config.icache.sizeBytes = 512;
    config.kagura.scheme = AdaptScheme::Mimd;
    config.kagura.trigger = TriggerKind::Voltage;
    config.kagura.counterBits = 3;
    config.kagura.historyDepth = 2;
    config.kagura.increaseStep = 12.5;
    config.enableDecay = true;
    config.enablePrefetch = true;
    config.capacitor.capacitance = 10e-6;
    config.ioRegionInterval = 1000;
    config.ioRegionLength = 64;
    config.oracle = OracleMode::Record;

    const SimConfig parsed =
        roundTrip(config.canonicalKey(), "non-default");
    EXPECT_EQ(parsed.compressor, CompressorKind::Fvc);
    EXPECT_EQ(parsed.ehs, EhsKind::SweepCache);
    EXPECT_EQ(parsed.kagura.trigger, TriggerKind::Voltage);
    EXPECT_EQ(parsed.oracle, OracleMode::Record);
}

TEST(SimConfigParse, EveryReplacementPolicyRoundTrips)
{
    for (ReplKind kind : repl::allReplKinds()) {
        SimConfig config = baselineConfig("crc32");
        config.icache.replacement = kind;
        config.dcache.replacement = kind;
        const SimConfig parsed =
            roundTrip(config.canonicalKey(), replacementPolicyName(kind));
        EXPECT_EQ(parsed.icache.replacement, kind);
        EXPECT_EQ(parsed.dcache.replacement, kind);
    }
}

TEST(SimConfigParse, EveryEhsKindRoundTrips)
{
    for (EhsKind kind : allEhsKinds) {
        SimConfig config = baselineConfig("crc32");
        config.ehs = kind;
        const SimConfig parsed =
            roundTrip(config.canonicalKey(), ehsKindName(kind));
        EXPECT_EQ(parsed.ehs, kind);
    }
}

TEST(SimConfigParse, NameParsersInvertEveryEhsAndReplacementName)
{
    for (EhsKind kind : allEhsKinds) {
        EXPECT_EQ(parseEhsKind(ehsKindName(kind)), kind);
    }
    for (ReplKind kind : repl::allReplKinds())
        EXPECT_EQ(repl::parseReplKind(replacementPolicyName(kind)), kind);
    // Case-insensitive, like every other config spelling.
    EXPECT_EQ(parseEhsKind("nvmr"), EhsKind::NvMR);
    EXPECT_EQ(repl::parseReplKind("lru"), ReplKind::Lru);
    EXPECT_FALSE(parseEhsKind("Alpaca").has_value());
    EXPECT_FALSE(repl::parseReplKind("MRU").has_value());
}

TEST(SimConfigKey, DistinctPoliciesProduceDistinctKeys)
{
    std::set<std::string> keys;
    for (ReplKind kind : repl::allReplKinds()) {
        SimConfig config = baselineConfig("crc32");
        config.dcache.replacement = kind;
        keys.insert(config.canonicalKey());
    }
    EXPECT_EQ(keys.size(), repl::allReplKinds().count);
}

TEST(SimConfigKey, DistinctEhsKindsProduceDistinctKeys)
{
    std::set<std::string> keys;
    for (EhsKind kind : allEhsKinds) {
        SimConfig config = baselineConfig("crc32");
        config.ehs = kind;
        keys.insert(config.canonicalKey());
    }
    EXPECT_EQ(keys.size(), std::size(allEhsKinds));
}

TEST(SimConfigParse, RejectsMalformedKeys)
{
    SimConfig parsed;
    std::string error;

    // Unknown key: a field this build cannot honour.
    EXPECT_EQ(SimConfig::parse("workload=crc32\nfrom.the.future=1\n",
                               parsed, error),
              ParseStatus::Malformed);
    EXPECT_NE(error.find("unknown key"), std::string::npos);

    // Bad enum value.
    EXPECT_EQ(SimConfig::parse("workload=crc32\ncompressor=gzip\n",
                               parsed, error),
              ParseStatus::Malformed);

    // Unknown replacement policy: typed Malformed, never a silent
    // fallback to LRU.
    EXPECT_EQ(SimConfig::parse("workload=crc32\ndcache.replacement=MRU\n",
                               parsed, error),
              ParseStatus::Malformed);

    // Unknown EHS design name: same typed rejection, never a silent
    // fallback to the NVSRAMCache baseline.
    EXPECT_EQ(SimConfig::parse("workload=crc32\nehs=Alpaca\n", parsed,
                               error),
              ParseStatus::Malformed);

    // Missing trailing newline.
    EXPECT_EQ(SimConfig::parse("workload=crc32", parsed, error),
              ParseStatus::Malformed);

    // No workload at all.
    EXPECT_EQ(SimConfig::parse("governor=none\n", parsed, error),
              ParseStatus::Malformed);

    // Unknown workload.
    EXPECT_EQ(SimConfig::parse("workload=not_an_app\n", parsed, error),
              ParseStatus::Malformed);

    // trace_hash without trace_path.
    EXPECT_EQ(SimConfig::parse(
                  "workload=crc32\nworkload.trace_hash=0011223344556677\n",
                  parsed, error),
              ParseStatus::Malformed);

    // Parses line-by-line but is not a complete canonical key, so the
    // round-trip law rejects it.
    EXPECT_EQ(SimConfig::parse("workload=crc32\n", parsed, error),
              ParseStatus::Malformed);
    EXPECT_NE(error.find("round-trip"), std::string::npos);
}

TEST(SimConfigParse, FlagsMissingTraceFile)
{
    SimConfig parsed;
    std::string error;
    EXPECT_EQ(SimConfig::parse("workload=ghost-trace\n"
                               "workload.trace_hash=0011223344556677\n"
                               "workload.trace_path=/nonexistent/ghost.kgt\n",
                               parsed, error),
              ParseStatus::TraceMismatch);
    EXPECT_NE(error.find("not found"), std::string::npos);

    // A trace: workload whose key lacks the trace_path line is typed
    // Malformed, never a fatal failure to hash the missing file.
    EXPECT_EQ(SimConfig::parse("workload=trace:/nonexistent/ghost.kgt\n",
                               parsed, error),
              ParseStatus::Malformed);
}

TEST(SimConfigParse, LongTracePathRoundTrips)
{
    // A trace path well past the 246 bytes a fixed 256-byte line
    // buffer could hold after "workload=trace:".
    namespace fs = std::filesystem;
    const std::string root = testing::TempDir() + "kagura-longpath-" +
                             std::to_string(::getpid());
    std::string dir = root;
    while (dir.size() < 280)
        dir += "/" + std::string(40, 'd');
    fs::create_directories(dir);
    const std::string path = dir + "/crc32.kgt";
    trace::writeTrace(cachedWorkload("crc32"), path);

    const SimConfig config =
        accConfig(std::string(trace::workloadPrefix) + path);
    const std::string key = config.canonicalKey();
    EXPECT_EQ(keyValue(key, "workload"), config.workload);
    EXPECT_GT(config.workload.size(), 265u);
    EXPECT_EQ(keyValue(key, "workload.trace_path"), path);

    SimConfig parsed;
    std::string error;
    ASSERT_EQ(SimConfig::parse(key, parsed, error), ParseStatus::Ok)
        << error;
    EXPECT_EQ(parsed.workload, config.workload);
    EXPECT_EQ(parsed.canonicalKey(), key);
    fs::remove_all(root);
}

TEST(SimConfigKey, DoublesPrintExactlyAsPrintfG17)
{
    // Hand-picked edge values, then a seeded corpus of random bit
    // patterns and random "human" magnitudes.
    std::vector<double> corpus = {
        0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.1 + 0.2, 1.0 / 3.0, 4.7e-6,
        10e-6, 1.75, 12.5, 123456789.0, 1e16, 1e17, 1e21, 1e22, 1e23,
        DBL_MAX, -DBL_MAX, DBL_MIN, DBL_EPSILON, DBL_TRUE_MIN,
        -DBL_TRUE_MIN, DBL_MIN - DBL_TRUE_MIN, 2.2250738585072009e-308,
        9007199254740993.0, 0.5, 5e-324, HUGE_VAL, -HUGE_VAL};
    for (int e = -324; e <= 308; ++e)
        corpus.push_back(std::pow(10.0, e));
    Rng rng(0x6b677266u);
    for (int i = 0; i < 4000; ++i) {
        const double raw = std::bit_cast<double>(rng.next());
        if (!std::isnan(raw))
            corpus.push_back(raw);
        // Subnormals: exponent bits zero, random mantissa.
        corpus.push_back(
            std::bit_cast<double>(rng.next() & 0x800fffffffffffffull));
        corpus.push_back(static_cast<double>(rng.below(100000)) /
                         std::pow(10.0, static_cast<double>(
                                            rng.below(12))));
    }

    SimConfig config = baselineConfig("crc32");
    for (double value : corpus) {
        config.traceScale = value;
        ASSERT_EQ(keyValue(config.canonicalKey(), "trace.scale"),
                  printfG17(value))
            << "bits " << std::bit_cast<std::uint64_t>(value);
    }
}

TEST(SimConfigKey, EveryDefaultDoublePrintsExactlyAsPrintfG17)
{
    // Every numeric line of the default key must be the "%.17g" text
    // of the number it parses to (the default integers are far below
    // 1e17, where "%.17g" prints them exactly as decimal integers).
    const std::string key = SimConfig{}.canonicalKey();
    std::size_t pos = 0;
    unsigned numbers = 0;
    while (pos < key.size()) {
        const std::size_t nl = key.find('\n', pos);
        const std::string line = key.substr(pos, nl - pos);
        pos = nl + 1;
        const std::string value = line.substr(line.find('=') + 1);
        double parsed = 0;
        const char *end = value.data() + value.size();
        const auto res = std::from_chars(value.data(), end, parsed);
        if (res.ec != std::errc() || res.ptr != end)
            continue; // an enum name
        EXPECT_EQ(value, printfG17(parsed)) << line;
        ++numbers;
    }
    EXPECT_GE(numbers, 40u);
}

} // namespace
} // namespace kagura
