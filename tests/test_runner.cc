/**
 * @file
 * Tests for the src/runner experiment-execution subsystem: scheduling
 * determinism across worker counts, exact SimResult codec round
 * trips, cache-key invalidation, cache-store robustness against
 * corrupt entries, and cache maintenance (stats + gc).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/logging.hh"
#include "runner/cache_maint.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/env.hh"
#include "runner/progress.hh"
#include "runner/result_codec.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace kagura
{
namespace
{

namespace fs = std::filesystem;

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

    /** A SimResult exercising every field the codec serialises. */
    static SimResult
    richResult()
    {
        SimResult r;
        r.workload = "jpegd";
        r.wallCycles = 123456789;
        r.activeCycles = 23456;
        r.committedInstructions = 99999;
        r.loads = 1234;
        r.stores = 567;
        r.powerFailures = 21;
        r.cycles.push_back({100, 10, 5, 2000});
        r.cycles.push_back({250, 17, 9, 4100});
        r.icache.accesses = 1000;
        r.icache.hits = 900;
        r.icache.misses = 100;
        r.dcache.accesses = 800;
        r.dcache.compressions = 42;
        r.ledger.add(EnergyCategory::Compress, 1.25);
        r.ledger.add(EnergyCategory::Memory, 3.0e7);
        r.ledger.add(EnergyCategory::Others, 0.1 + 0.2); // non-exact sum
        r.kagura.modeSwitches = 7;
        r.kagura.rewards = 3;
        r.oracleVetoes = 11;
        r.oracle.addTally(0x1000, 3, 1);
        r.oracle.addTally(0x2040, 0, 5);
        return r;
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
    SimConfig base = accConfig("crc32");

    runner::setJobCount(1);
    const std::vector<SimResult> serial = runIdeal(base, true);
    runner::setJobCount(4);
    const std::vector<SimResult> parallel = runIdeal(base, true);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(exactlyEqual(serial[i], parallel[i]));
}

TEST_F(RunnerTests, CodecRoundTripsEveryFieldExactly)
{
    const SimResult r = richResult();
    const std::string bytes = runner::encodeResult(r);

    SimResult back;
    ASSERT_TRUE(runner::decodeResult(bytes, back));
    EXPECT_TRUE(exactlyEqual(r, back));
    EXPECT_EQ(back.workload, "jpegd");
    EXPECT_EQ(back.cycles.size(), 2u);
    EXPECT_EQ(back.cycles[1].activeCycles, 4100u);
    EXPECT_EQ(back.icache.hits, 900u);
    EXPECT_EQ(back.ledger.total(EnergyCategory::Others), 0.1 + 0.2);
    EXPECT_TRUE(back.oracle == r.oracle);
    EXPECT_TRUE(back.oracle.worthCompressing(0x1000, false));
    EXPECT_FALSE(back.oracle.worthCompressing(0x2040, true));
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
    const std::string bytes = runner::encodeResult(richResult());
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
    EXPECT_EQ(store.legacyEntryPath(0xab123456789abcdeULL)
                  .find("/ab/"),
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

TEST_F(RunnerTests, CacheStoreMigratesFlatEntriesIntoShards)
{
    const std::string dir = tempDir("migrate");
    const std::uint64_t hash = 0xcd00000000000042ULL;
    const std::string key = "legacy-key\n";

    // Plant a valid entry at the pre-sharding flat path by writing it
    // sharded, then moving the file to the directory root.
    runner::CacheStore store(dir);
    store.store(hash, key, "legacy-payload");
    std::filesystem::rename(store.entryPath(hash),
                            store.legacyEntryPath(hash));
    ASSERT_FALSE(std::filesystem::exists(store.entryPath(hash)));

    // The lookup still hits -- and migrates the entry into its shard.
    std::string out;
    ASSERT_TRUE(store.lookup(hash, key, out));
    EXPECT_EQ(out, "legacy-payload");
    EXPECT_TRUE(std::filesystem::exists(store.entryPath(hash)));
    EXPECT_FALSE(std::filesystem::exists(store.legacyEntryPath(hash)));
    ASSERT_TRUE(store.lookup(hash, key, out)); // sharded fast path
    EXPECT_EQ(out, "legacy-payload");

    // A key-mismatched flat entry is a miss and must NOT migrate
    // (the next reader revalidates it from the flat path).
    std::filesystem::rename(store.entryPath(hash),
                            store.legacyEntryPath(hash));
    EXPECT_FALSE(store.lookup(hash, "other-key\n", out));
    EXPECT_TRUE(std::filesystem::exists(store.legacyEntryPath(hash)));
    EXPECT_FALSE(std::filesystem::exists(store.entryPath(hash)));
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

TEST_F(RunnerTests, ThreadPoolRunsEverySubmittedTask)
{
    runner::ThreadPool pool(4);
    constexpr int tasks = 200;
    std::vector<int> hits(tasks, 0);
    for (int i = 0; i < tasks; ++i)
        pool.submit([&hits, i] { hits[i] = i + 1; });
    pool.wait();
    for (int i = 0; i < tasks; ++i)
        EXPECT_EQ(hits[i], i + 1);

    // The pool is reusable after a wait().
    pool.submit([&hits] { hits[0] = -1; });
    pool.wait();
    EXPECT_EQ(hits[0], -1);
}

TEST_F(RunnerTests, InlinePoolExecutesAtWait)
{
    runner::ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 0u); // inline mode, no threads
    bool ran = false;
    pool.submit([&ran] { ran = true; });
    EXPECT_FALSE(ran); // deferred until wait()
    pool.wait();
    EXPECT_TRUE(ran);
}

TEST_F(RunnerTests, CacheStatsCountsEntriesShardsAndDebris)
{
    const std::string dir = tempDir("stats");
    runner::CacheStore store(dir);
    // Three sharded entries across two shards (top byte 0x01, 0x02).
    store.store(0x0100000000000001ull, "k1", "payload-one");
    store.store(0x0100000000000002ull, "k2", "payload-two");
    store.store(0x0200000000000001ull, "k3", "payload-three");
    // One legacy flat entry and one writer-crash temp file.
    {
        std::ofstream legacy(
            store.legacyEntryPath(0x0300000000000001ull));
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
