/**
 * @file
 * Tests for SimConfig's canonical key and its inverse,
 * SimConfig::parse(): the round-trip law over default, heavily
 * non-default, every-replacement-policy and every-EHS-design
 * configs, typed rejection of malformed keys and missing trace
 * files, long trace paths, the key's double formatting
 * (std::to_chars general/17 must print exactly what "%.17g" does,
 * also for values at and beside each double row's default, whose
 * lines the writer copies), and a digest pinning the key text of
 * 5,000 random configs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cctype>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/workload.hh"
#include "runner/config_hash.hh"
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
    for (ReplKind kind : replKindNames) {
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
    for (EhsKind kind : ehsKindNames) {
        SimConfig config = baselineConfig("crc32");
        config.ehs = kind;
        const SimConfig parsed =
            roundTrip(config.canonicalKey(), ehsKindName(kind));
        EXPECT_EQ(parsed.ehs, kind);
    }
}

TEST(SimConfigParse, NameParsersInvertEveryEhsAndReplacementName)
{
    for (EhsKind kind : ehsKindNames) {
        EXPECT_EQ(enumFromName(ehsKindNames, ehsKindName(kind)), kind);
    }
    for (ReplKind kind : replKindNames)
        EXPECT_EQ(enumFromName(replKindNames, replacementPolicyName(kind)),
                  kind);
    // Case-insensitive, like every other config spelling.
    EXPECT_EQ(enumFromName(ehsKindNames, "nvmr"), EhsKind::NvMR);
    EXPECT_EQ(enumFromName(replKindNames, "lru"), ReplKind::Lru);
    EXPECT_FALSE(enumFromName(ehsKindNames, "Alpaca").has_value());
    EXPECT_FALSE(enumFromName(replKindNames, "MRU").has_value());
}

/**
 * One name table's laws: dense and in enum order, every name and
 * alias inverts to its value in any case, and no spelling names two
 * values.
 */
template <typename Enum, std::size_t N>
void
expectTableInverts(const EnumName<Enum> (&table)[N], std::size_t size)
{
    EXPECT_EQ(N, size);
    EXPECT_TRUE(inEnumOrder(table));
    std::set<std::string> spellings;
    for (const EnumName<Enum> &entry : table) {
        std::string lower = entry.name;
        for (char &c : lower)
            c = static_cast<char>(std::tolower(c));
        EXPECT_EQ(enumFromName(table, entry.name), entry.value);
        EXPECT_EQ(enumFromName(table, lower), entry.value);
        EXPECT_TRUE(spellings.insert(lower).second) << entry.name;
        if (entry.alias) {
            EXPECT_EQ(enumFromName(table, entry.alias), entry.value);
            EXPECT_TRUE(spellings.insert(entry.alias).second)
                << entry.alias;
        }
    }
    EXPECT_FALSE(enumFromName(table, "").has_value());
    EXPECT_FALSE(enumFromName(table, "no-such-name").has_value());
}

TEST(SimConfigParse, EveryNameTableInvertsItsNamesAndAliases)
{
    // Sizes are the enums' value counts, spelled out by hand rather
    // than read from the tables under test.
    expectTableInverts(governorKindNames, 3);
    expectTableInverts(compressorKindNames, 6);
    expectTableInverts(ehsKindNames, 5);
    expectTableInverts(nvmTypeNames, 3);
    expectTableInverts(traceKindNames, 4);
    expectTableInverts(adaptSchemeNames, 4);
    expectTableInverts(triggerKindNames, 2);
    expectTableInverts(replKindNames, 7);
    expectTableInverts(tagLayoutNames, 3);
    expectTableInverts(oracleModeOrdinals, 3);

    // The two CLI aliases kept from the old flag parsers.
    EXPECT_EQ(enumFromName(compressorKindNames, "cpack"),
              CompressorKind::CPack);
    EXPECT_EQ(enumFromName(ehsKindNames, "nvsram"), EhsKind::NvsramCache);
    EXPECT_STREQ(compressorKindName(CompressorKind::CPack), "C-Pack");
    EXPECT_STREQ(ehsKindName(EhsKind::NvsramCache), "NVSRAMCache");
}

TEST(SimConfigParse, AliasSpelledKeyFailsTheRoundTripLaw)
{
    // A key is canonical: the parser reads an alias, but the
    // re-serialized key spells the canonical name, so the key is
    // rejected rather than given a second spelling.
    SimConfig config = accConfig("crc32");
    config.compressor = CompressorKind::CPack;
    std::string key = roundTrip(config.canonicalKey(), "C-Pack")
                          .canonicalKey();
    const std::size_t at = key.find("compressor=C-Pack\n");
    ASSERT_NE(at, std::string::npos);
    key.replace(at, std::string("compressor=C-Pack").size(),
                "compressor=cpack");
    SimConfig parsed;
    std::string error;
    EXPECT_EQ(SimConfig::parse(key, parsed, error), ParseStatus::Malformed);
    EXPECT_NE(error.find("round-trip"), std::string::npos) << error;
}

TEST(SimConfigKey, DistinctPoliciesProduceDistinctKeys)
{
    std::set<std::string> keys;
    for (ReplKind kind : replKindNames) {
        SimConfig config = baselineConfig("crc32");
        config.dcache.replacement = kind;
        keys.insert(config.canonicalKey());
    }
    EXPECT_EQ(keys.size(), std::size(replKindNames));
}

TEST(SimConfigKey, DistinctEhsKindsProduceDistinctKeys)
{
    std::set<std::string> keys;
    for (EhsKind kind : ehsKindNames) {
        SimConfig config = baselineConfig("crc32");
        config.ehs = kind;
        keys.insert(config.canonicalKey());
    }
    EXPECT_EQ(keys.size(), std::size(ehsKindNames));
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

/** A double member of SimConfig, by its key line. */
struct DoubleRow
{
    const char *key;
    double &(*member)(SimConfig &);
};

TEST(SimConfigKey, EveryDoubleRowPrintsExactlyAtAndBesideItsDefault)
{
    // canonicalKey() copies the line of a value with its default's
    // bit pattern instead of formatting it. At the default, one ulp
    // either side, negated and NaN, every double row must still print
    // exactly "%.17g" of its value: -0.0 and NaN compare wrongly
    // under ==.
    const std::vector<DoubleRow> rows = {
        {"kagura.increase_step",
         [](SimConfig &c) -> double & { return c.kagura.increaseStep; }},
        {"kagura.reward_band",
         [](SimConfig &c) -> double & { return c.kagura.rewardBand; }},
        {"kagura.voltage_trigger_fraction",
         [](SimConfig &c) -> double & {
             return c.kagura.voltageTriggerFraction;
         }},
        {"capacitor.capacitance",
         [](SimConfig &c) -> double & { return c.capacitor.capacitance; }},
        {"capacitor.v_max",
         [](SimConfig &c) -> double & { return c.capacitor.vMax; }},
        {"capacitor.v_restore",
         [](SimConfig &c) -> double & { return c.capacitor.vRestore; }},
        {"capacitor.v_checkpoint",
         [](SimConfig &c) -> double & { return c.capacitor.vCheckpoint; }},
        {"capacitor.v_shutdown",
         [](SimConfig &c) -> double & { return c.capacitor.vShutdown; }},
        {"capacitor.leakage_per_farad",
         [](SimConfig &c) -> double & {
             return c.capacitor.leakagePerFarad;
         }},
        {"energy.clock_hz",
         [](SimConfig &c) -> double & { return c.energy.clockHz; }},
        {"energy.core_per_instr",
         [](SimConfig &c) -> double & { return c.energy.corePerInstr; }},
        {"energy.core_leakage",
         [](SimConfig &c) -> double & { return c.energy.coreLeakage; }},
        {"energy.cache_access",
         [](SimConfig &c) -> double & { return c.energy.cacheAccess; }},
        {"energy.cache_leakage_per_byte",
         [](SimConfig &c) -> double & {
             return c.energy.cacheLeakagePerByte;
         }},
        {"energy.nvff_write",
         [](SimConfig &c) -> double & { return c.energy.nvffWrite; }},
        {"energy.nvff_read",
         [](SimConfig &c) -> double & { return c.energy.nvffRead; }},
        {"energy.monitor_sample",
         [](SimConfig &c) -> double & { return c.energy.monitorSample; }},
        {"energy.extended_monitor_sample",
         [](SimConfig &c) -> double & {
             return c.energy.extendedMonitorSample;
         }},
        {"energy.reboot_energy",
         [](SimConfig &c) -> double & { return c.energy.rebootEnergy; }},
        {"energy.compaction_energy",
         [](SimConfig &c) -> double & {
             return c.energy.compactionEnergy;
         }},
        {"energy.trace_interval",
         [](SimConfig &c) -> double & { return c.energy.traceInterval; }},
        {"trace.scale",
         [](SimConfig &c) -> double & { return c.traceScale; }},
    };

    // The list is complete: its keys are exactly the default key's
    // lines that accept a fractional value.
    const std::string base = SimConfig{}.canonicalKey();
    std::set<std::string> fractional;
    for (std::size_t pos = 0; pos < base.size();) {
        const std::size_t nl = base.find('\n', pos);
        const std::size_t eq = base.find('=', pos);
        std::string key = base;
        key.replace(eq + 1, nl - eq - 1, "0.5");
        SimConfig parsed;
        std::string error;
        if (SimConfig::parse(key, parsed, error) == ParseStatus::Ok)
            fractional.insert(base.substr(pos, eq - pos));
        pos = nl + 1;
    }
    std::set<std::string> listed;
    for (const DoubleRow &row : rows)
        listed.insert(row.key);
    EXPECT_EQ(fractional, listed);

    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const DoubleRow &row : rows) {
        SimConfig defaults;
        const double value = row.member(defaults);
        for (const double probe :
             {value, std::nextafter(value, inf),
              std::nextafter(value, -inf), -value, nan, -nan}) {
            SimConfig config;
            row.member(config) = probe;
            EXPECT_EQ(keyValue(config.canonicalKey(), row.key),
                      printfG17(probe))
                << row.key << " bits "
                << std::bit_cast<std::uint64_t>(probe);
        }
    }
}

/** A random double: raw bits (no NaN), a subnormal, or a decimal. */
double
randomDouble(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        for (;;) {
            const double raw = std::bit_cast<double>(rng.next());
            if (!std::isnan(raw))
                return raw;
        }
      case 1:
        return std::bit_cast<double>(rng.next() & 0x800fffffffffffffull);
      default:
        return static_cast<double>(rng.below(100000)) /
               std::pow(10.0, static_cast<double>(rng.below(12)));
    }
}

/** A random count: small, 32-bit or (when @p wide) 64-bit. */
std::uint64_t
randomCount(Rng &rng, bool wide)
{
    switch (rng.below(3)) {
      case 0:
        return rng.below(1000);
      case 1:
        return rng.next() & 0xffffffffull;
      default:
        return wide ? rng.next() : rng.next() & 0xffffffffull;
    }
}

unsigned
randomUnsigned(Rng &rng)
{
    return static_cast<unsigned>(randomCount(rng, false));
}

/**
 * A random cache block. The enum values are drawn by index, not from
 * any name table, so a value missing from a table cannot hide here.
 */
void
randomizeCache(Rng &rng, CacheConfig &cache)
{
    cache.sizeBytes = randomUnsigned(rng);
    cache.ways = randomUnsigned(rng);
    cache.blockSize = randomUnsigned(rng);
    cache.segmentBytes = randomUnsigned(rng);
    cache.replacement = static_cast<ReplKind>(rng.below(7));
    cache.tagLayout = static_cast<TagLayoutKind>(rng.below(3));
    // Half the caches keep the default (omitted) signature width.
    cache.sigBits = rng.chance(0.5) ? 6 : randomUnsigned(rng);
}

/**
 * One random non-trace config touching every key line, built field
 * by field by hand (independent of how SimConfig serializes itself).
 */
SimConfig
randomConfig(Rng &rng)
{
    const std::vector<std::string> &apps = workloadNames();
    SimConfig c;
    c.workload = apps[rng.below(apps.size())];
    randomizeCache(rng, c.icache);
    randomizeCache(rng, c.dcache);
    c.enableL2 = rng.chance(0.5);
    // The L2 block is randomized even when disabled: its lines must
    // then vanish from the key.
    randomizeCache(rng, c.l2);
    c.l2Governor = static_cast<GovernorKind>(rng.below(3));
    c.l2Kagura = rng.chance(0.5);
    c.governor = static_cast<GovernorKind>(rng.below(3));
    c.compressor = static_cast<CompressorKind>(rng.below(6));
    c.enableKagura = rng.chance(0.5);
    c.kagura.scheme = static_cast<AdaptScheme>(rng.below(4));
    c.kagura.increaseStep = randomDouble(rng);
    c.kagura.counterBits = randomUnsigned(rng);
    c.kagura.historyDepth = randomUnsigned(rng);
    c.kagura.trigger = static_cast<TriggerKind>(rng.below(2));
    c.kagura.initialThreshold = randomCount(rng, true);
    c.kagura.rewardBand = randomDouble(rng);
    c.kagura.voltageTriggerFraction = randomDouble(rng);
    c.kagura.applyAdjustment = rng.chance(0.5);
    c.kagura.adaptiveThreshold = rng.chance(0.5);
    c.ehs = static_cast<EhsKind>(rng.below(5));
    c.nvmType = static_cast<NvmType>(rng.below(3));
    c.nvmBytes = randomCount(rng, true);
    c.capacitor.capacitance = randomDouble(rng);
    c.capacitor.vMax = randomDouble(rng);
    c.capacitor.vRestore = randomDouble(rng);
    c.capacitor.vCheckpoint = randomDouble(rng);
    c.capacitor.vShutdown = randomDouble(rng);
    c.capacitor.leakagePerFarad = randomDouble(rng);
    c.energy.clockHz = randomDouble(rng);
    c.energy.corePerInstr = randomDouble(rng);
    c.energy.coreLeakage = randomDouble(rng);
    c.energy.cacheAccess = randomDouble(rng);
    c.energy.cacheLeakagePerByte = randomDouble(rng);
    c.energy.nvffWrite = randomDouble(rng);
    c.energy.nvffRead = randomDouble(rng);
    c.energy.monitorSample = randomDouble(rng);
    c.energy.extendedMonitorSample = randomDouble(rng);
    c.energy.rebootLatency = randomCount(rng, true);
    c.energy.rebootEnergy = randomDouble(rng);
    c.energy.compactionEnergy = randomDouble(rng);
    c.energy.traceInterval = randomDouble(rng);
    c.trace = static_cast<TraceKind>(rng.below(4));
    c.traceSeed = randomCount(rng, true);
    c.traceScale = randomDouble(rng);
    c.traceIntervals = randomCount(rng, true);
    c.enableDecay = rng.chance(0.5);
    c.decay.decayInterval = randomCount(rng, true);
    c.enablePrefetch = rng.chance(0.5);
    c.infiniteEnergy = rng.chance(0.5);
    c.ioRegionInterval = randomCount(rng, true);
    c.ioRegionLength = randomCount(rng, true);
    c.oracle = static_cast<OracleMode>(rng.below(3));
    return c;
}

TEST(SimConfigKey, RandomConfigKeyDigestIsPinned)
{
    // The concatenated key text of 5,000 seeded random configs, as
    // printed by the hand-written serializer this digest was recorded
    // from. Any change to a key line, its order, its omission rule or
    // its number formatting moves the digest (and would orphan every
    // cached result), so a mismatch here is a key-format change.
    constexpr std::uint64_t expectedDigest = 0x5ae438368cc9792cull;
    constexpr std::size_t expectedBytes = 9629037;

    Rng rng(0x6b65796469676573ull);
    std::string all;
    std::map<std::string, std::set<std::string>> seen;
    for (int i = 0; i < 5000; ++i) {
        const SimConfig config = randomConfig(rng);
        const std::string key = config.canonicalKey();
        all += key;
        SimConfig parsed;
        std::string error;
        ASSERT_EQ(SimConfig::parse(key, parsed, error), ParseStatus::Ok)
            << "config " << i << ": " << error;
        ASSERT_EQ(parsed.canonicalKey(), key) << "config " << i;
        for (const char *name :
             {"dcache.replacement", "dcache.tag_layout", "l2.enabled",
              "l2.governor", "l2.sig_bits", "governor", "compressor",
              "kagura.scheme", "kagura.trigger", "ehs", "nvm.type",
              "trace.kind", "oracle.mode"})
            seen[name].insert(keyValue(key, name));
    }
    // Every enum value appears (plus "<missing>" where the line is
    // conditional), and both L2 states.
    EXPECT_EQ(seen["dcache.replacement"].size(), 7u);
    EXPECT_EQ(seen["dcache.tag_layout"].size(), 3u);
    EXPECT_EQ(seen["l2.enabled"].size(), 2u);
    EXPECT_EQ(seen["l2.governor"].size(), 4u);
    EXPECT_GT(seen["l2.sig_bits"].size(), 100u);
    EXPECT_EQ(seen["governor"].size(), 3u);
    EXPECT_EQ(seen["compressor"].size(), 6u);
    EXPECT_EQ(seen["kagura.scheme"].size(), 4u);
    EXPECT_EQ(seen["kagura.trigger"].size(), 2u);
    EXPECT_EQ(seen["ehs"].size(), 5u);
    EXPECT_EQ(seen["nvm.type"].size(), 3u);
    EXPECT_EQ(seen["trace.kind"].size(), 4u);
    EXPECT_EQ(seen["oracle.mode"].size(), 3u);

    EXPECT_EQ(all.size(), expectedBytes);
    EXPECT_EQ(runner::fnv1a64(all), expectedDigest)
        << std::hex << "0x" << runner::fnv1a64(all);
}

} // namespace
} // namespace kagura
