/**
 * @file
 * Tests for the src/runner experiment-execution subsystem: scheduling
 * determinism across worker counts, exact SimResult codec round
 * trips, cache-key invalidation, cache-store robustness against
 * corrupt entries, and cache maintenance (stats + gc).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fields.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "metrics/registry.hh"
#include "metrics/sink.hh"
#include "runner/cache_maint.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/env.hh"
#include "runner/progress.hh"
#include "runner/result_codec.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace kagura
{
namespace
{

namespace fs = std::filesystem;

/**
 * Give every row of @p value (common/fields.hh) a distinct nonzero
 * value drawn from @p next, so a decoder that swaps, skips or drops
 * any field reads back something different.
 */
template <typename T>
void
fillEveryRow(T &value, std::uint64_t &next)
{
    if constexpr (std::is_same_v<T, std::uint64_t>) {
        value = next++;
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
        value = static_cast<std::int64_t>(next++);
    } else if constexpr (std::is_array_v<T>) {
        for (auto &element : value)
            fillEveryRow(element, next);
    } else if constexpr (std::is_same_v<T, std::string>) {
        value = "jpegd";
    } else if constexpr (std::is_same_v<T, std::vector<PowerCycleRecord>>) {
        value.resize(3);
        for (PowerCycleRecord &rec : value)
            fillEveryRow(rec, next);
    } else if constexpr (std::is_same_v<T, OracleLog>) {
        // Inserted out of address order: the encoder sorts them.
        for (const Addr addr : {0x2040u, 0x1000u, 0x3080u}) {
            const auto beneficial = static_cast<std::uint32_t>(next++);
            value.addTally(addr, beneficial,
                           static_cast<std::uint32_t>(next++));
        }
    } else {
        forEachRow<T>([&](const auto &row) {
            if constexpr (isStored<decltype(row)>)
                fillEveryRow(value.*row.member, next);
        });
    }
}

/** A SimResult whose every field, in every section, is nonzero. */
SimResult
everyFieldResult()
{
    SimResult r;
    std::uint64_t next = 1;
    fillEveryRow(r, next);
    return r;
}

/** Expect @p a and @p b equal row by row; @p path names the row. */
template <typename T>
void
expectSameRows(const T &a, const T &b, const std::string &path)
{
    if constexpr (std::is_same_v<T, std::uint64_t> ||
                  std::is_same_v<T, std::int64_t> ||
                  std::is_same_v<T, std::string>) {
        EXPECT_EQ(a, b) << path;
    } else if constexpr (std::is_array_v<T>) {
        for (std::size_t i = 0; i < std::extent_v<T>; ++i)
            expectSameRows(a[i], b[i], path + "/" + std::to_string(i + 1));
    } else if constexpr (std::is_same_v<T, std::vector<PowerCycleRecord>>) {
        ASSERT_EQ(a.size(), b.size()) << path;
        for (std::size_t i = 0; i < a.size(); ++i)
            expectSameRows(a[i], b[i], path + "/" + std::to_string(i));
    } else if constexpr (std::is_same_v<T, OracleLog>) {
        EXPECT_TRUE(a == b) << path;
    } else {
        forEachRow<T>([&](const auto &row) {
            if constexpr (isStored<decltype(row)>)
                expectSameRows(a.*row.member, b.*row.member,
                               path + "/" + std::string(row.name));
        });
    }
}

/**
 * Expect the metric export of @p stats to hold exactly one name per
 * row: an array row names each (nonzero) element.
 */
template <typename T>
void
expectOneMetricPerRow(const T &stats)
{
    std::vector<std::string> expected;
    forEachRow<T>([&](const auto &row) {
        const std::string name = "s/" + std::string(row.name);
        std::size_t elements = 1;
        if constexpr (isStored<decltype(row)>)
            if constexpr (isArray<decltype(stats.*row.member)>)
                elements = std::size(stats.*row.member);
        if (elements == 1)
            expected.push_back(name);
        else
            for (std::size_t k = 1; k <= elements; ++k)
                expected.push_back(name + "/" + std::to_string(k));
    });
    std::sort(expected.begin(), expected.end());

    metrics::MetricSet set;
    metrics::recordFields(set, "s", stats);
    std::vector<std::string> names;
    for (const metrics::Record &record : set.snapshot())
        names.push_back(record.name);
    EXPECT_EQ(names, expected);
}

/**
 * Quiet, hermetic fixture: the global cache store is parked disabled
 * and every mutated knob (worker count, suite repeats, store state)
 * is restored afterwards, so these tests neither read nor write a
 * developer's .kagura-cache.
 */
class RunnerTests : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        informEnabled = false;
        savedRepeats = suiteRepeats;
        savedEnabled = runner::CacheStore::global().enabled();
        savedDir = runner::CacheStore::global().directory();
        runner::CacheStore::global().setEnabled(false);
    }

    void
    TearDown() override
    {
        suiteRepeats = savedRepeats;
        runner::setJobCount(0);
        runner::CacheStore::global().setDirectory(savedDir);
        runner::CacheStore::global().setEnabled(savedEnabled);
    }

    /**
     * Fresh per-test temp directory under the gtest temp root. The
     * pid suffix keeps the smoke and full test binaries (which both
     * compile this file) from racing on the same directory when ctest
     * runs them concurrently.
     */
    std::string
    tempDir(const std::string &leaf)
    {
        const std::string dir = testing::TempDir() + "kagura-" + leaf +
                                "-" + std::to_string(::getpid());
        std::filesystem::remove_all(dir);
        return dir;
    }

    unsigned savedRepeats = 0;
    bool savedEnabled = false;
    std::string savedDir;
};

TEST_F(RunnerTests, SuiteResultIsBitIdenticalAcrossWorkerCounts)
{
    suiteRepeats = 2;
    const std::vector<std::string> apps = {"crc32", "adpcm_d"};

    runner::setJobCount(1);
    const SuiteResult serial = runSuite("t", accKaguraConfig, apps);
    runner::setJobCount(8);
    const SuiteResult parallel = runSuite("t", accKaguraConfig, apps);

    ASSERT_EQ(serial.apps.size(), parallel.apps.size());
    for (std::size_t a = 0; a < serial.apps.size(); ++a) {
        ASSERT_EQ(serial.apps[a].runs.size(),
                  parallel.apps[a].runs.size());
        for (std::size_t i = 0; i < serial.apps[a].runs.size(); ++i)
            EXPECT_TRUE(exactlyEqual(serial.apps[a].runs[i],
                                     parallel.apps[a].runs[i]))
                << serial.apps[a].app << " run " << i
                << " differs between --jobs 1 and --jobs 8";
    }
}

TEST_F(RunnerTests, IdealJobsAreDeterministicAcrossWorkerCounts)
{
    suiteRepeats = 2;
    const std::vector<std::string> apps = {"crc32"};
    const auto ideal = [&apps] {
        return runSuite("ideal", accConfig, apps,
                        runner::SimJob::Kind::IdealAware);
    };

    runner::setJobCount(1);
    const SuiteResult serial = ideal();
    runner::setJobCount(4);
    const SuiteResult parallel = ideal();

    ASSERT_EQ(serial.apps.size(), 1u);
    ASSERT_EQ(parallel.apps.size(), 1u);
    const std::vector<SimResult> &a = serial.apps[0].runs;
    const std::vector<SimResult> &b = parallel.apps[0].runs;
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(exactlyEqual(a[i], b[i]));
}

TEST_F(RunnerTests, CodecRoundTripsEveryFieldExactly)
{
    const SimResult r = everyFieldResult();
    const std::string bytes = runner::encodeResult(r);

    SimResult back;
    ASSERT_TRUE(runner::decodeResult(bytes, back));
    expectSameRows(r, back, "result");
    EXPECT_TRUE(exactlyEqual(r, back));

    expectOneMetricPerRow(r.icache);
    expectOneMetricPerRow(r.dcache);
    expectOneMetricPerRow(r.l2cache);
    expectOneMetricPerRow(r.icacheTags);
    expectOneMetricPerRow(r.dcacheTags);
    expectOneMetricPerRow(r.l2cacheTags);
    expectOneMetricPerRow(r.kagura);
}

TEST_F(RunnerTests, CodecMutationsDecodeCanonicallyOrNotAtAll)
{
    // The canonical-form promise of result_codec.hh, against input
    // from outside the program (cache entries are read from disk):
    // any byte string either fails to decode or decodes to a result
    // that re-encodes to exactly those bytes. The third base puts the
    // signed zeptojoule counters (ledger, unfunded, spilled) at their
    // extremes, where a flipped bit crosses the sign.
    unsigned accepted = 0;
    unsigned rejected = 0;
    const auto check = [&](const std::string &bytes,
                           const std::string &what) {
        SimResult out;
        if (!runner::decodeResult(bytes, out)) {
            ++rejected;
            return;
        }
        ++accepted;
        EXPECT_TRUE(runner::encodeResult(out) == bytes) << what;
    };

    SimResult extremes = everyFieldResult();
    for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c)
        extremes.ledger.zj[c] =
            c % 2 ? std::numeric_limits<ZeptoJoules>::max()
                  : std::numeric_limits<ZeptoJoules>::min() + 1;
    extremes.unfundedZj = -1;
    extremes.spilledZj = std::numeric_limits<ZeptoJoules>::min();

    Rng rng(0x6b677262);
    for (const SimResult &base :
         {everyFieldResult(), SimResult{}, extremes}) {
        const std::string good = runner::encodeResult(base);
        for (std::size_t n = 0; n < good.size(); ++n)
            check(good.substr(0, n), "truncated to " + std::to_string(n));
        for (std::size_t bit = 0; bit < 8 * good.size(); ++bit) {
            std::string bytes = good;
            bytes[bit / 8] ^= static_cast<char>(1 << bit % 8);
            check(bytes, "bit " + std::to_string(bit) + " flipped");
        }
        for (int i = 0; i < 2000; ++i) {
            std::string bytes = good;
            const std::size_t at = rng.below(bytes.size() + 1);
            bytes.insert(at, 1, static_cast<char>(rng.below(256)));
            check(bytes, "byte inserted at " + std::to_string(at));
        }
    }
    // Both outcomes occur: cuts at section boundaries and flips
    // inside counters decode; most others do not.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST_F(RunnerTests, CodecRoundTripsARealRun)
{
    SimConfig cfg = accKaguraConfig("crc32");
    Simulator sim(cfg);
    const SimResult r = sim.run();

    SimResult back;
    ASSERT_TRUE(runner::decodeResult(runner::encodeResult(r), back));
    EXPECT_TRUE(exactlyEqual(r, back));
    EXPECT_EQ(toJson(r, true), toJson(back, true));
}

TEST_F(RunnerTests, CodecRejectsTruncatedAndCorruptPayloads)
{
    const std::string bytes = runner::encodeResult(everyFieldResult());
    SimResult out;
    EXPECT_FALSE(runner::decodeResult("", out));
    EXPECT_FALSE(runner::decodeResult("garbage", out));
    for (const std::size_t keep :
         {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1})
        EXPECT_FALSE(
            runner::decodeResult(bytes.substr(0, keep), out));
    // Trailing junk is also rejected (payload must parse exactly).
    EXPECT_FALSE(runner::decodeResult(bytes + "x", out));
}

TEST_F(RunnerTests, ChangedConfigFieldOrSaltInvalidatesKey)
{
    const SimConfig base = accKaguraConfig("crc32");
    const std::uint64_t h = runner::jobHash(base, "plain");

    SimConfig other = base;
    other.traceSeed ^= 1;
    EXPECT_NE(runner::jobHash(other, "plain"), h);

    other = base;
    other.dcache.sizeBytes = 512;
    EXPECT_NE(runner::jobHash(other, "plain"), h);

    other = base;
    other.kagura.increaseStep = 0.11;
    EXPECT_NE(runner::jobHash(other, "plain"), h);

    // Same config under a different job kind is a different job.
    EXPECT_NE(runner::jobHash(base, "ideal-aware"), h);

    // Bumping the simulator-version salt retires every entry.
    EXPECT_NE(runner::jobHash(base, "plain",
                              runner::simulatorVersionSalt + 1),
              h);

    // Output-only knobs must NOT invalidate: a verbose run may reuse
    // a quiet run's cached result.
    other = base;
    other.verbose = !base.verbose;
    EXPECT_EQ(runner::jobHash(other, "plain"), h);
}

TEST_F(RunnerTests, CacheStoreRoundTripsAndDetectsKeyMismatch)
{
    runner::CacheStore store(tempDir("store"));
    const std::string key = "k=v\n";
    const std::string payload("payload\0with-nul", 16);

    std::string out;
    EXPECT_FALSE(store.lookup(42, key, out)); // cold
    store.store(42, key, payload);
    ASSERT_TRUE(store.lookup(42, key, out));
    EXPECT_EQ(out, payload);

    // Same hash, different key text: collision detected, miss.
    EXPECT_FALSE(store.lookup(42, "k=other\n", out));

    // Disabled store never hits.
    store.setEnabled(false);
    EXPECT_FALSE(store.lookup(42, key, out));
}

TEST_F(RunnerTests, CacheStoreTreatsCorruptEntriesAsMisses)
{
    runner::CacheStore store(tempDir("corrupt"));
    const std::string key = "config\n";
    store.store(7, key, "real-payload");

    std::string out;
    ASSERT_TRUE(store.lookup(7, key, out));

    // Truncate the entry: lookup degrades to a miss, not an abort.
    const std::string path = store.entryPath(7);
    std::filesystem::resize_file(path, 10);
    EXPECT_FALSE(store.lookup(7, key, out));

    // Overwrite with garbage of plausible length: checksum catches it.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << std::string(64, 'z');
    }
    EXPECT_FALSE(store.lookup(7, key, out));

    // A corrupt entry can be replaced and then hits again.
    store.store(7, key, "new-payload");
    ASSERT_TRUE(store.lookup(7, key, out));
    EXPECT_EQ(out, "new-payload");
}

TEST_F(RunnerTests, CacheStoreShardsEntriesBySubdirectory)
{
    runner::CacheStore store(tempDir("shard"));

    // The shard is the first two hex digits of the 16-digit name.
    EXPECT_NE(store.entryPath(0xab123456789abcdeULL)
                  .find("/ab/ab123456789abcde.kgr"),
              std::string::npos);
    EXPECT_NE(store.entryPath(0x0000000000000007ULL)
                  .find("/00/0000000000000007.kgr"),
              std::string::npos);

    // Entries with distinct high bytes land in distinct shard dirs.
    store.store(0x1100000000000001ULL, "a\n", "pay-a");
    store.store(0x2200000000000002ULL, "b\n", "pay-b");
    EXPECT_TRUE(std::filesystem::exists(
        store.entryPath(0x1100000000000001ULL)));
    EXPECT_TRUE(std::filesystem::exists(
        store.entryPath(0x2200000000000002ULL)));

    std::string out;
    ASSERT_TRUE(store.lookup(0x1100000000000001ULL, "a\n", out));
    EXPECT_EQ(out, "pay-a");
}

/** Whole-file contents of @p path. */
std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** @p body followed by its version-2 checksum, little-endian. */
std::string
sealed(std::string body)
{
    std::uint64_t sum = runner::laneHash64(body);
    for (int i = 0; i < 8; ++i, sum >>= 8)
        body.push_back(static_cast<char>(sum & 0xff));
    return body;
}

/** The committed version-1 entry (accKaguraConfig("crc32"), plain). */
std::string
fixtureEntryPath()
{
    const runner::CacheStore fixture(std::string(KAGURA_TEST_DATA_DIR) +
                                     "/cache_fixture");
    return fixture.entryPath(
        runner::jobHash(accKaguraConfig("crc32"), "plain"));
}

TEST_F(RunnerTests, CacheStoreChecksumIsPinned)
{
    // Stored entries carry these values: a change to laneHash64 turns
    // every version-2 entry into a miss, so it needs a new version.
    const auto input = [](std::size_t n) {
        std::string bytes(n, '\0');
        for (std::size_t i = 0; i < n; ++i)
            bytes[i] = static_cast<char>((i * 131 + 7) & 0xff);
        return bytes;
    };
    const std::pair<std::size_t, std::uint64_t> pinned[] = {
        {0, 0x432b8fd49b25d555ull},
        {1, 0x98f752ac8a60936eull},
        {31, 0x5c9070da1a007a2dull},
        {32, 0xd711413456d080d3ull},
        {33, 0x4dd31b2fe1b8b6fbull},
        {4096, 0x5e8f4c404f141b8eull},
    };
    for (const auto &[n, expected] : pinned)
        EXPECT_EQ(runner::laneHash64(input(n)), expected)
            << n << " bytes: 0x" << std::hex
            << runner::laneHash64(input(n));
}

TEST_F(RunnerTests, CacheStoreMissesOnAnyFlippedByte)
{
    runner::CacheStore store(tempDir("flip"));
    const std::string key = "k=v\n";
    store.store(9, key, "payload");
    const std::string path = store.entryPath(9);
    const std::string good = readBytes(path);
    ASSERT_EQ(good.size(), 24 + key.size() + 7 + 8);
    EXPECT_EQ(good[4], 2) << "new entries are version 2";

    std::string out;
    for (std::size_t i = 0; i < good.size(); ++i) {
        std::string bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0x5a);
        writeBytes(path, bad);
        EXPECT_FALSE(store.lookup(9, key, out)) << "byte " << i;
    }
    store.store(9, key, "payload");
    ASSERT_TRUE(store.lookup(9, key, out));
    EXPECT_EQ(out, "payload");
}

TEST_F(RunnerTests, CacheStoreStillVerifiesVersion1Entries)
{
    const std::string v1 = readBytes(fixtureEntryPath());
    ASSERT_GT(v1.size(), 32u);
    ASSERT_EQ(v1[4], 1) << "the fixture is a version-1 entry";

    const SimConfig config = accKaguraConfig("crc32");
    const std::string key = runner::jobKeyText(config, "plain");
    const std::uint64_t hash = runner::jobHash(config, "plain");
    runner::CacheStore store(tempDir("v1"));
    fs::create_directories(fs::path(store.entryPath(hash)).parent_path());
    writeBytes(store.entryPath(hash), v1);
    std::string out;
    ASSERT_TRUE(store.lookup(hash, key, out));

    // Flip one payload byte: the FNV-1a check must catch it.
    std::string bad = v1;
    bad[bad.size() - 8 - 100] ^= 0x01;
    writeBytes(store.entryPath(hash), bad);
    EXPECT_FALSE(store.lookup(hash, key, out));
}

TEST_F(RunnerTests, CacheStoreRejectsUnknownVersions)
{
    runner::CacheStore store(tempDir("v3"));
    const std::string key = "k=v\n";
    store.store(5, key, "payload");
    const std::string path = store.entryPath(5);

    // Version 3 with a checksum that would be valid: still a miss.
    std::string body = readBytes(path);
    body.resize(body.size() - 8);
    body[4] = 3;
    writeBytes(path, sealed(body));
    std::string out;
    EXPECT_FALSE(store.lookup(5, key, out));
}

TEST_F(RunnerTests, CacheStoreRejectsLengthsThatWrap)
{
    // key_len + payload_len wraps to the real body length (8 bytes).
    std::string blob = "KGRC";
    blob += std::string("\x02\0\0\0", 4);
    blob += std::string(8, '\xff');              // key_len = 2^64 - 1
    blob += std::string("\x09\0\0\0\0\0\0\0", 8); // payload_len = 9
    blob += "12345678";
    blob = sealed(blob);

    runner::CacheStore store(tempDir("wrap"));
    store.store(6, "k", "p"); // creates the shard directory
    writeBytes(store.entryPath(6), blob);
    // The only key that could match is everything after the header.
    std::string out;
    EXPECT_FALSE(store.lookup(6, blob.substr(24), out));
}

TEST_F(RunnerTests, MixedVersionCacheReplaysWithoutSimulating)
{
    // A cache holding the committed version-1 entry beside version-2
    // entries written now serves a whole sweep from disk.
    runner::CacheStore &store = runner::CacheStore::global();
    store.setDirectory(tempDir("mixed"));
    store.setEnabled(true);
    runner::setJobCount(1);
    const std::vector<runner::SimJob> jobs = {
        {accKaguraConfig("crc32"), runner::SimJob::Kind::Plain},
        {accConfig("crc32"), runner::SimJob::Kind::Plain},
    };
    const std::string v1_path = store.entryPath(
        runner::jobHash(jobs[0].config, "plain"));
    fs::create_directories(fs::path(v1_path).parent_path());
    fs::copy_file(fixtureEntryPath(), v1_path);

    const auto before = runner::progress().snapshot();
    const std::vector<SimResult> cold = runner::runJobs(jobs);
    const auto mid = runner::progress().snapshot();
    const std::vector<SimResult> warm = runner::runJobs(jobs);
    const auto after = runner::progress().snapshot().since(mid);

    EXPECT_EQ(mid.since(before).simulations, 1u); // accConfig only
    EXPECT_EQ(readBytes(v1_path)[4], 1);
    EXPECT_EQ(after.simulations, 0u);
    EXPECT_EQ(after.cacheHits, jobs.size());
    EXPECT_EQ(after.cacheMisses, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(exactlyEqual(cold[i], warm[i])) << i;
}

TEST_F(RunnerTests, ParseCountAcceptsOnlyWholePositiveNumbers)
{
    unsigned out = 77;
    EXPECT_TRUE(runner::parseCount("1", out));
    EXPECT_EQ(out, 1u);
    EXPECT_TRUE(runner::parseCount("64", out));
    EXPECT_EQ(out, 64u);
    EXPECT_TRUE(runner::parseCount("  +8", out));
    EXPECT_EQ(out, 8u);

    // Rejected inputs leave the output untouched.
    out = 77;
    for (const char *bad :
         {"", "   ", "abc", "8abc", "8x", "1.5", "-3", "-0", "0",
          "0x10", "999999999999999999999"})
        EXPECT_FALSE(runner::parseCount(bad, out)) << "'" << bad << "'";
    EXPECT_EQ(out, 77u);
}

TEST_F(RunnerTests, EnvCountFallsBackOnMalformedValues)
{
    const char *const var = "KAGURA_TEST_ENV_COUNT";

    ::unsetenv(var);
    EXPECT_EQ(runner::envCount(var, 5), 5u); // unset: silent fallback

    ::setenv(var, "12", 1);
    EXPECT_EQ(runner::envCount(var, 5), 12u);

    // Malformed values (the old parser read "8abc" as 8) fall back.
    for (const char *bad : {"8abc", "abc", "-3", "0", ""}) {
        ::setenv(var, bad, 1);
        EXPECT_EQ(runner::envCount(var, 5), 5u) << "'" << bad << "'";
    }
    ::unsetenv(var);
}

TEST_F(RunnerTests, WarmCacheReproducesColdResultsWithoutSimulating)
{
    runner::CacheStore &store = runner::CacheStore::global();
    store.setDirectory(tempDir("warm"));
    store.setEnabled(true);
    suiteRepeats = 1;
    runner::setJobCount(2);
    const std::vector<std::string> apps = {"crc32"};

    const auto before = runner::progress().snapshot();
    const SuiteResult cold = runSuite("t", accConfig, apps);
    const auto mid = runner::progress().snapshot();
    const SuiteResult warm = runSuite("t", accConfig, apps);
    const auto after = runner::progress().snapshot();

    // Cold pass simulated; warm pass was served purely from disk.
    EXPECT_EQ(mid.simulations - before.simulations, 1u);
    EXPECT_EQ(after.simulations - mid.simulations, 0u);
    EXPECT_EQ(after.cacheHits - mid.cacheHits, 1u);

    ASSERT_EQ(cold.apps.size(), warm.apps.size());
    EXPECT_TRUE(exactlyEqual(cold.apps[0].runs[0],
                             warm.apps[0].runs[0]));
}

/** Sink that keeps the per-cycle series records in a caller's vector. */
struct CycleSeriesSink : metrics::Sink
{
    explicit CycleSeriesSink(std::vector<metrics::Record> &out) : out(out)
    {
    }
    void
    write(const metrics::Record &record) override
    {
        if (record.name.rfind("sim/cycle/", 0) == 0)
            out.push_back(record);
    }
    std::vector<metrics::Record> &out;
};

TEST_F(RunnerTests, CycleSeriesSurvivesACacheHit)
{
    runner::CacheStore &store = runner::CacheStore::global();
    store.setDirectory(tempDir("series"));
    store.setEnabled(true);
    runner::SimJob job;
    job.config = accKaguraConfig("crc32");

    // The same job cold (simulated) and warm (served from disk), each
    // with the per-cycle series armed.
    const auto series = [&job](runner::JobOutcome &outcome) {
        std::vector<metrics::Record> records;
        metrics::setDefaultSink(
            std::make_unique<CycleSeriesSink>(records));
        metrics::setTimeseriesEnabled(true);
        outcome = runner::runJobDetailed(job);
        metrics::setTimeseriesEnabled(false);
        metrics::setDefaultSink(nullptr);
        return records;
    };
    runner::JobOutcome cold, warm;
    const std::vector<metrics::Record> cold_series = series(cold);
    const std::vector<metrics::Record> warm_series = series(warm);

    EXPECT_FALSE(cold.cacheHit);
    EXPECT_TRUE(warm.cacheHit);
    ASSERT_GT(cold.result.cycles.size(), 0u);
    EXPECT_EQ(cold_series.size(), 4 * cold.result.cycles.size());
    ASSERT_EQ(warm_series.size(), cold_series.size());
    for (std::size_t i = 0; i < cold_series.size(); ++i) {
        EXPECT_EQ(warm_series[i].name, cold_series[i].name);
        EXPECT_EQ(warm_series[i].labels, cold_series[i].labels);
        EXPECT_EQ(warm_series[i].value, cold_series[i].value);
    }
}

/**
 * The scheduler behind runJobs(): every index runs exactly once at
 * any worker count, and one worker means the caller makes every call.
 */
TEST_F(RunnerTests, ParallelForRunsEveryIndexOnce)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
        runner::setJobCount(workers);
        for (const std::size_t n : {0u, 1u, 3u, 200u}) {
            std::vector<std::atomic<int>> calls(n);
            std::vector<std::thread::id> ran_on(n);
            runner::parallelFor(n, [&](std::size_t i) {
                ASSERT_LT(i, n);
                calls[i].fetch_add(1);
                ran_on[i] = std::this_thread::get_id();
            });
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(calls[i].load(), 1)
                    << "index " << i << " of " << n << " at " << workers
                    << " workers";
                if (workers == 1) {
                    EXPECT_EQ(ran_on[i], caller)
                        << "index " << i << " of " << n;
                }
            }
        }
    }
}

TEST_F(RunnerTests, CacheStatsCountsEntriesShardsAndDebris)
{
    const std::string dir = tempDir("stats");
    runner::CacheStore store(dir);
    // Three sharded entries across two shards (top byte 0x01, 0x02).
    store.store(0x0100000000000001ull, "k1", "payload-one");
    store.store(0x0100000000000002ull, "k2", "payload-two");
    store.store(0x0200000000000001ull, "k3", "payload-three");
    // One legacy flat entry (the pre-sharding layout) and one
    // writer-crash temp file.
    {
        std::ofstream legacy(dir + "/0300000000000001.kgr");
        legacy << "legacy-bytes";
        std::ofstream temp(dir + "/tmp-999-0");
        temp << "partial";
    }

    const runner::CacheStatsReport stats = runner::cacheStats(store);
    EXPECT_EQ(stats.entries, 4u);
    EXPECT_EQ(stats.legacyEntries, 1u);
    EXPECT_EQ(stats.tempFiles, 1u);
    EXPECT_EQ(stats.shards, 2u);
    EXPECT_EQ(stats.maxShardEntries, 2u);
    EXPECT_EQ(stats.minShardEntries, 1u);
    EXPECT_GT(stats.totalBytes, 0u);
    EXPECT_NEAR(stats.skew(), 2.0 / 1.5, 1e-9);
}

TEST_F(RunnerTests, CacheMaintenanceIgnoresLeftoverManifestDirectory)
{
    // Older builds kept sweep manifests under <cache>/manifests/. The
    // directory is not a shard: stats must not count it and gc must
    // neither descend into it nor delete it.
    const std::string dir = tempDir("manifests");
    runner::CacheStore store(dir);
    store.store(0x0100000000000001ull, "k1", "payload");
    fs::create_directories(dir + "/manifests");
    const std::string manifest = dir + "/manifests/old-grid.manifest";
    {
        std::ofstream out(manifest);
        out << "kagura.manifest/v1\n";
    }
    fs::last_write_time(manifest, fs::file_time_type::clock::now() -
                                      std::chrono::hours(24 * 365));

    const runner::CacheStatsReport stats = runner::cacheStats(store);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.shards, 1u);
    EXPECT_EQ(stats.tempFiles, 0u);

    // The year-old manifest would be dropped if gc took it for an
    // entry; the one real entry is young and stays.
    runner::GcOptions options;
    options.maxAgeSeconds = 3600;
    const runner::GcReport report = runner::cacheGc(store, options);
    EXPECT_EQ(report.scanned, 1u);
    EXPECT_EQ(report.deleted, 0u);
    EXPECT_EQ(report.tempFilesRemoved, 0u);
    EXPECT_TRUE(fs::exists(manifest));
    EXPECT_TRUE(fs::is_directory(dir + "/manifests"));
}

TEST_F(RunnerTests, CacheGcTrimsOldestFirstByBytes)
{
    runner::CacheStore store(tempDir("gc-bytes"));
    const std::string payload(1000, 'x');
    store.store(0x0100000000000001ull, "old", payload);
    store.store(0x0200000000000001ull, "mid", payload);
    store.store(0x0300000000000001ull, "new", payload);
    // Backdate by mtime: old << mid << now.
    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(store.entryPath(0x0100000000000001ull),
                        now - std::chrono::hours(48));
    fs::last_write_time(store.entryPath(0x0200000000000001ull),
                        now - std::chrono::hours(24));

    runner::GcOptions options;
    options.maxBytes = 1500; // room for one ~1KB entry
    const runner::GcReport report = runner::cacheGc(store, options);
    EXPECT_EQ(report.scanned, 3u);
    EXPECT_EQ(report.deleted, 2u);
    EXPECT_EQ(report.remainingEntries, 1u);
    EXPECT_LE(report.remainingBytes, options.maxBytes);
    // The newest entry survives and still reads back.
    std::string out;
    EXPECT_TRUE(store.lookup(0x0300000000000001ull, "new", out));
    EXPECT_FALSE(store.lookup(0x0100000000000001ull, "old", out));
}

TEST_F(RunnerTests, CacheGcDropsEntriesPastMaxAge)
{
    runner::CacheStore store(tempDir("gc-age"));
    store.store(0x0100000000000001ull, "ancient", "a");
    store.store(0x0200000000000001ull, "fresh", "b");
    fs::last_write_time(store.entryPath(0x0100000000000001ull),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(72));

    runner::GcOptions options;
    options.maxAgeSeconds = 24 * 3600;
    const runner::GcReport report = runner::cacheGc(store, options);
    EXPECT_EQ(report.deleted, 1u);
    std::string out;
    EXPECT_TRUE(store.lookup(0x0200000000000001ull, "fresh", out));
    EXPECT_FALSE(store.lookup(0x0100000000000001ull, "ancient", out));
}

TEST_F(RunnerTests, CacheGcSweepsStaleTempsButSparesFreshOnes)
{
    const std::string dir = tempDir("gc-temps");
    runner::CacheStore store(dir);
    store.store(0x0100000000000001ull, "keep", "payload");
    {
        std::ofstream stale(dir + "/tmp-1-0");
        stale << "crashed writer";
        std::ofstream fresh(dir + "/tmp-2-0");
        fresh << "live writer";
    }
    fs::last_write_time(dir + "/tmp-1-0",
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(2));

    runner::GcOptions options;
    options.maxAgeSeconds = 7 * 24 * 3600;
    const runner::GcReport report = runner::cacheGc(store, options);
    EXPECT_EQ(report.tempFilesRemoved, 1u);
    EXPECT_FALSE(fs::exists(dir + "/tmp-1-0"));
    EXPECT_TRUE(fs::exists(dir + "/tmp-2-0"));
    EXPECT_EQ(report.deleted, 0u); // the real entry is young
}

} // namespace
} // namespace kagura
