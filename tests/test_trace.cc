/**
 * @file
 * Tests for the src/trace record/replay subsystem: kagura.trace/v1
 * round trips, bit-identical replay through the simulator, corruption
 * rejection, ChampSim ingestion, trace-backed workload registration,
 * cache-key soundness, and the bench --apps selection parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "runner/cache_store.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/champsim.hh"
#include "trace/format.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_workload.hh"
#include "trace/trace_writer.hh"

#ifndef KAGURA_TEST_DATA_DIR
#error "KAGURA_TEST_DATA_DIR must point at tests/data"
#endif

namespace kagura
{
namespace
{

/**
 * Hermetic fixture, same discipline as RunnerTests: the persistent
 * cache is parked disabled and every mutated global is restored, so
 * trace tests neither touch a developer's .kagura-cache nor leak
 * worker-count/repeat settings.
 */
class TraceTests : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        informEnabled = false;
        savedRepeats = suiteRepeats;
        savedEnabled = runner::CacheStore::global().enabled();
        runner::CacheStore::global().setEnabled(false);
    }

    void
    TearDown() override
    {
        suiteRepeats = savedRepeats;
        runner::setJobCount(0);
        runner::CacheStore::global().setEnabled(savedEnabled);
    }

    /** Fresh per-test temp file path under the gtest temp root. */
    std::string
    tempFile(const std::string &leaf)
    {
        const std::string path =
            testing::TempDir() + "kagura-trace-" + leaf;
        std::filesystem::remove(path);
        return path;
    }

    /** Whole-file read into a byte string. */
    static std::string
    slurp(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    /** Whole-string write (binary). */
    static void
    spill(const std::string &path, const std::string &bytes)
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    static std::string
    champSimFixture()
    {
        return std::string(KAGURA_TEST_DATA_DIR) + "/mini.champsim";
    }

    unsigned savedRepeats = 0;
    bool savedEnabled = false;
};

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    return a.type == b.type && a.size == b.size && a.count == b.count &&
           a.pc == b.pc && a.addr == b.addr && a.value == b.value;
}

/** The kernels the round-trip tests sweep (cheap but diverse). */
const std::vector<std::string> &
roundTripKernels()
{
    static const std::vector<std::string> kernels = {
        "crc32", "bitcount", "adpcm_c"};
    return kernels;
}

TEST_F(TraceTests, RecordedTraceLoadsBackIdentically)
{
    for (const std::string &kernel : roundTripKernels()) {
        SCOPED_TRACE(kernel);
        const Workload &original = cachedWorkload(kernel);
        const std::string path = tempFile(kernel + ".kgt");
        trace::writeTrace(original, path);

        const Workload loaded = trace::loadTraceWorkload(path);
        EXPECT_EQ(loaded.name(), original.name());
        EXPECT_EQ(loaded.imageRuns(), original.imageRuns());
        ASSERT_EQ(loaded.ops().size(), original.ops().size());
        for (std::size_t i = 0; i < loaded.ops().size(); ++i) {
            ASSERT_TRUE(sameOp(loaded.ops()[i], original.ops()[i]))
                << "op " << i << " of " << kernel
                << " differs after a trace round trip";
        }

        std::string error;
        EXPECT_TRUE(trace::validateTrace(path, &error)) << error;
    }
}

TEST_F(TraceTests, ReplayIsBitIdenticalToTheOriginalRun)
{
    for (const std::string &kernel : roundTripKernels()) {
        SCOPED_TRACE(kernel);
        const std::string path = tempFile(kernel + "-replay.kgt");
        trace::writeTrace(cachedWorkload(kernel), path);

        SimConfig direct_cfg = accKaguraConfig(kernel);
        Simulator direct(direct_cfg);
        const SimResult want = direct.run();

        SimConfig replay_cfg = accKaguraConfig(
            std::string(trace::workloadPrefix) + path);
        Simulator replay(replay_cfg);
        const SimResult got = replay.run();

        EXPECT_TRUE(exactlyEqual(want, got))
            << kernel << ": replayed SimResult differs from the "
            << "direct run";
        EXPECT_EQ(got.workload, kernel);
    }
}

TEST_F(TraceTests, HeaderStatsMatchTheWorkload)
{
    const Workload &wl = cachedWorkload("crc32");
    const std::string path = tempFile("crc32-info.kgt");
    trace::writeTrace(wl, path);

    const trace::TraceInfo info = trace::readTraceInfo(path);
    EXPECT_EQ(info.name, "crc32");
    EXPECT_EQ(info.version, trace::formatVersion);
    EXPECT_EQ(info.opCount, wl.ops().size());
    EXPECT_EQ(info.imageBytes, wl.initialImage().size());
    EXPECT_GT(info.opsBytes, 0u);
}

TEST_F(TraceTests, ValidateRejectsCorruptFiles)
{
    const std::string good = tempFile("good.kgt");
    trace::writeTrace(cachedWorkload("crc32"), good);
    const std::string bytes = slurp(good);
    ASSERT_GT(bytes.size(), static_cast<std::size_t>(
                                trace::fixedHeaderBytes));
    std::string error;

    // Wrong magic.
    {
        std::string bad = bytes;
        bad[0] = 'X';
        const std::string path = tempFile("magic.kgt");
        spill(path, bad);
        EXPECT_FALSE(trace::validateTrace(path, &error));
        EXPECT_NE(error.find("magic"), std::string::npos) << error;
    }

    // Unsupported version.
    {
        std::string bad = bytes;
        bad[8] = 0x7f;
        const std::string path = tempFile("version.kgt");
        spill(path, bad);
        EXPECT_FALSE(trace::validateTrace(path, &error));
    }

    // Truncations at several depths: inside the header, inside the
    // op payload, and just short of the final byte.
    for (const std::size_t keep :
         {std::size_t{10}, std::size_t{trace::fixedHeaderBytes},
          bytes.size() / 2, bytes.size() - 1}) {
        const std::string path = tempFile("trunc.kgt");
        spill(path, bytes.substr(0, keep));
        EXPECT_FALSE(trace::validateTrace(path, &error))
            << "accepted a file truncated to " << keep << " bytes";
    }

    // A flipped payload byte trips the checksum.
    {
        std::string bad = bytes;
        bad[bytes.size() - 1] =
            static_cast<char>(bad[bytes.size() - 1] ^ 0x5a);
        const std::string path = tempFile("flip.kgt");
        spill(path, bad);
        EXPECT_FALSE(trace::validateTrace(path, &error));
    }

    // Trailing junk is corruption too, not ignorable padding.
    {
        const std::string path = tempFile("tail.kgt");
        spill(path, bytes + "junk");
        EXPECT_FALSE(trace::validateTrace(path, &error));
    }

    // Missing file.
    EXPECT_FALSE(trace::validateTrace(tempFile("absent.kgt"), &error));

    // The original is untouched and still validates.
    EXPECT_TRUE(trace::validateTrace(good, &error)) << error;
}

/**
 * A kagura.trace/v1 file (format.hh) around hand-coded payloads, with
 * a correct header and checksum, so a test can state input the writer
 * never produces.
 */
std::string
rawTrace(const std::string &ops, std::uint64_t op_count,
         const std::string &image, std::uint64_t extents,
         std::uint64_t image_bytes)
{
    std::string out(trace::fileMagic, sizeof(trace::fileMagic));
    const auto put = [&out](std::uint64_t v, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i)
            out.push_back(static_cast<char>(v >> (8 * i)));
    };
    put(trace::formatVersion, 2);
    put(0, 2);  // flags
    put(32, 4); // block size
    put(op_count, 8);
    put(extents, 8);
    put(image_bytes, 8);
    put(ops.size(), 8);
    put(image.size(), 8);
    std::uint64_t sum =
        trace::fnvFold(trace::fnvOffset(), ops.data(), ops.size());
    sum = trace::fnvFold(sum, image.data(), image.size());
    put(sum, 8);
    put(1, 2);
    return out + "t" + ops + image;
}

/** One ALU op of one instruction; @p delta from the last op's end. */
std::string
aluAt(std::int64_t delta)
{
    std::string op(1, static_cast<char>(1 << 3));
    trace::putVarint(op, trace::zigzagEncode(delta));
    return op;
}

/** The same op, sequential: its PC is where the last op ended. */
const std::string sequentialAlu(1, static_cast<char>(1 << 3 | 1 << 2));

/** One image extent: @p gap from the last extent's end, @p bytes. */
std::string
extent(std::int64_t gap, const std::string &bytes)
{
    std::string out;
    trace::putVarint(out, trace::zigzagEncode(gap));
    trace::putVarint(out, bytes.size());
    trace::putVarint(out, (bytes.size() - 1) << 1); // all literals
    return out + bytes;
}

/** Read all of @p path through a TraceReader; the failure kind. */
trace::TraceError
readAll(const std::string &path, std::string *error = nullptr)
{
    trace::TraceReader reader(path);
    MicroOp op;
    while (reader.next(op)) {
    }
    reader.readImage([](Addr, std::uint8_t, std::uint64_t) {});
    if (error)
        *error = reader.error();
    return reader.errorKind();
}

TEST_F(TraceTests, ReaderRejectsAPcPastThirtyTwoBits)
{
    const std::string path = tempFile("wide-pc.kgt");
    std::string error;

    // The last word of the 32-bit space is a valid PC.
    spill(path, rawTrace(aluAt(0xfffffffcLL), 1, "", 0, 0));
    EXPECT_EQ(readAll(path, &error), trace::TraceError::None) << error;
    EXPECT_EQ(trace::loadTraceWorkload(path).ops()[0].pc, 0xfffffffcu);

    // 2^32 is not, whether reached by a delta or by running on.
    spill(path, rawTrace(aluAt(1LL << 32), 1, "", 0, 0));
    EXPECT_EQ(readAll(path, &error), trace::TraceError::PcTooWide);
    EXPECT_NE(error.find("32-bit"), std::string::npos) << error;
    spill(path,
          rawTrace(aluAt(0xfffffffcLL) + sequentialAlu, 2, "", 0, 0));
    EXPECT_EQ(readAll(path), trace::TraceError::PcTooWide);
    std::string validate_error;
    EXPECT_FALSE(trace::validateTrace(path, &validate_error));
    EXPECT_EXIT(trace::loadTraceWorkload(path),
                testing::ExitedWithCode(1), "32-bit");

    // The writer keeps the end of an op in the top word at 2^32, not
    // 0, so an op at PC 0 after it is a jump back, not a sequential op.
    std::vector<MicroOp> ops(2);
    for (MicroOp &op : ops) {
        op.type = MicroOp::Type::Load;
        op.size = 4;
    }
    ops[0].pc = 0xfffffffc;
    ops[1].pc = 0;
    trace::writeTrace(Workload("top", ops, {}), path);
    const Workload back = trace::loadTraceWorkload(path);
    ASSERT_EQ(back.ops().size(), 2u);
    EXPECT_EQ(back.ops()[0].pc, 0xfffffffcu);
    EXPECT_EQ(back.ops()[1].pc, 0u);
}

TEST_F(TraceTests, ReaderRejectsImageExtentsThatDoNotAscend)
{
    const std::string path = tempFile("extents.kgt");
    const std::string ops = aluAt(0x8000);
    const std::string first = extent(0x100, "abcd"); // [0x100, 0x104)

    // A negative gap is refused, with the way the extent fails to
    // ascend.
    spill(path, rawTrace(ops, 1, first + extent(-8, "e"), 2, 5));
    EXPECT_EQ(readAll(path), trace::TraceError::ExtentBackwards);
    spill(path, rawTrace(ops, 1, first + extent(-2, "e"), 2, 5));
    EXPECT_EQ(readAll(path), trace::TraceError::ExtentOverlaps);
    spill(path, rawTrace(ops, 1, extent(-1, "e"), 1, 1));
    EXPECT_EQ(readAll(path), trace::TraceError::ExtentBackwards);

    // An extent may not run past 2^64, however it gets there.
    std::string wraps;
    trace::putVarint(wraps, trace::zigzagEncode(INT64_MAX));
    trace::putVarint(wraps, (1ULL << 63) + 1); // ends at exactly 2^64
    spill(path, rawTrace(ops, 1, wraps, 1, ~0ULL));
    EXPECT_EQ(readAll(path), trace::TraceError::ExtentWraps);
    spill(path, rawTrace(ops, 1,
                         extent(INT64_MAX, "a") + extent(INT64_MAX, "b"),
                         2, 2));
    EXPECT_EQ(readAll(path), trace::TraceError::ExtentWraps);

    // An extent that starts where the last one ended is valid, and
    // the loaded image holds the two as one run.
    std::string error;
    spill(path, rawTrace(ops, 1, first + extent(0, "ef"), 2, 6));
    ASSERT_EQ(readAll(path, &error), trace::TraceError::None) << error;
    const Workload wl = trace::loadTraceWorkload(path);
    ASSERT_EQ(wl.imageRuns().size(), 1u);
    EXPECT_EQ(wl.imageRuns()[0].base, 0x100u);
    EXPECT_EQ(wl.imageRuns()[0].bytes.size(), 6u);
}

TEST_F(TraceTests, ReaderMutationsLoadOrFailThroughTheError)
{
    // A small recorded trace touching every encoding: long and short
    // ALU groups, loop back-edges (PC deltas), loads and stores with
    // forward and backward address deltas, and an image with runs,
    // literals and three extents.
    TraceRecorder rec;
    const Addr data = rec.allocate(64);
    std::uint8_t bytes[24] = {};
    for (unsigned i = 0; i < sizeof(bytes); ++i)
        bytes[i] = static_cast<std::uint8_t>(i < 12 ? 7 : i * 29);
    rec.initData(data, bytes, sizeof(bytes));
    rec.initValue(data + 0x1000, 0x0102030405060708ULL, 8);
    rec.alu(40);
    rec.beginLoop();
    for (unsigned i = 0; i < 3; ++i) {
        rec.store(data + 8 * (3 - i), rec.load(data + 8 * i, 8) + i, 8);
        rec.alu(2);
        rec.endIteration();
    }
    rec.endLoop();
    const std::string good_path = tempFile("mutant-base.kgt");
    trace::writeTrace(rec.finish("m"), good_path);
    const std::string good = slurp(good_path);
    ASSERT_EQ(readAll(good_path), trace::TraceError::None);

    const std::string path = tempFile("mutant.kgt");
    unsigned accepted = 0;
    unsigned rejected = 0;
    const auto check = [&](const std::string &bytes,
                           const std::string &what) {
        spill(path, bytes);
        std::string error;
        const trace::TraceError kind = readAll(path, &error);
        if (kind != trace::TraceError::None) {
            ++rejected;
            EXPECT_FALSE(error.empty()) << what;
            return;
        }
        ++accepted;
        const Workload wl = trace::loadTraceWorkload(path);
        const trace::TraceInfo info = trace::readTraceInfo(path);
        EXPECT_EQ(wl.ops().size(), info.opCount) << what;
        EXPECT_EQ(wl.initialImage().size(), info.imageBytes) << what;
    };

    Rng rng(0x6b677472);
    for (std::size_t n = 0; n < good.size(); ++n)
        check(good.substr(0, n), "truncated to " + std::to_string(n));
    for (std::size_t bit = 0; bit < 8 * good.size(); ++bit) {
        std::string bytes = good;
        bytes[bit / 8] ^= static_cast<char>(1 << bit % 8);
        check(bytes, "bit " + std::to_string(bit) + " flipped");
    }
    for (int i = 0; i < 500; ++i) {
        std::string bytes = good;
        const std::size_t at = rng.below(bytes.size() + 1);
        bytes.insert(at, 1, static_cast<char>(rng.below(256)));
        check(bytes, "byte inserted at " + std::to_string(at));
    }
    for (unsigned extra = 1; extra <= 16; ++extra)
        check(good + std::string(extra, static_cast<char>(extra)),
              std::to_string(extra) + " bytes appended");
    // Flips of the block size, the reserved flags and the name load;
    // nearly everything else fails.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, accepted);
}

TEST_F(TraceTests, LoadingACorruptTraceIsFatalNotSilent)
{
    const std::string good = tempFile("fatal-good.kgt");
    trace::writeTrace(cachedWorkload("crc32"), good);
    std::string bytes = slurp(good);
    bytes[0] = 'X';
    const std::string bad = tempFile("fatal-bad.kgt");
    spill(bad, bytes);

    EXPECT_EXIT(trace::loadTraceWorkload(bad),
                testing::ExitedWithCode(1), "magic");
    EXPECT_EXIT(cachedWorkload(std::string(trace::workloadPrefix) +
                               tempFile("fatal-absent.kgt")),
                testing::ExitedWithCode(1), "");
}

TEST_F(TraceTests, ChampSimFixtureConvertsValidatesAndReplays)
{
    const std::string out = tempFile("mini-champsim.kgt");
    trace::ChampSimConvertOptions opts;
    opts.name = "mini_champsim";
    const trace::ChampSimConvertStats stats =
        trace::convertChampSim(champSimFixture(), out, opts);

    // The fixture is 48 records with loads every 3rd record (plus a
    // second load every 5th), stores every (i % 4 == 1) record, and
    // branches every (i % 7 == 3) record.
    EXPECT_EQ(stats.records, 48u);
    EXPECT_EQ(stats.loads, 16u + 10u);
    EXPECT_EQ(stats.stores, 12u);
    EXPECT_EQ(stats.branches, 7u);

    std::string error;
    ASSERT_TRUE(trace::validateTrace(out, &error)) << error;

    const Workload wl = trace::loadTraceWorkload(out);
    EXPECT_EQ(wl.name(), "mini_champsim");
    EXPECT_EQ(wl.committedInstructions(),
              stats.records + stats.loads + stats.stores);
    EXPECT_EQ(wl.memoryOps(), stats.loads + stats.stores);
    EXPECT_TRUE(wl.initialImage().empty());

    // Folded addresses stay inside the configured windows.
    for (const MicroOp &op : wl.ops()) {
        if (op.type == MicroOp::Type::Alu) {
            EXPECT_GE(op.pc, opts.codeBase);
            EXPECT_LT(op.pc, opts.codeBase + opts.codeWindowBytes);
        } else {
            EXPECT_GE(op.addr, opts.dataBase);
            EXPECT_LT(op.addr, opts.dataBase + opts.dataWindowBytes);
            EXPECT_EQ(op.addr % 8, 0u);
            EXPECT_EQ(op.size, 8u);
        }
    }

    // End-to-end: the converted trace simulates like any workload,
    // and identically across two runs.
    SimConfig cfg = accKaguraConfig(
        std::string(trace::workloadPrefix) + out);
    Simulator first(cfg);
    const SimResult a = first.run();
    Simulator second(cfg);
    const SimResult b = second.run();
    EXPECT_GT(a.committedInstructions, 0u);
    EXPECT_TRUE(exactlyEqual(a, b));

    // Conversion is deterministic: same input, same output bytes.
    const std::string again = tempFile("mini-champsim-2.kgt");
    trace::convertChampSim(champSimFixture(), again, opts);
    EXPECT_EQ(slurp(out), slurp(again));
}

TEST_F(TraceTests, ChampSimCodeWindowMustEndWithinThirtyTwoBits)
{
    const std::string out = tempFile("mini-champsim-window.kgt");
    trace::ChampSimConvertOptions opts;
    opts.maxRecords = 5;
    opts.codeWindowBytes = 1ULL << 20;
    opts.codeBase = (1ULL << 32) - opts.codeWindowBytes; // ends at 2^32
    trace::convertChampSim(champSimFixture(), out, opts);
    std::string error;
    EXPECT_TRUE(trace::validateTrace(out, &error)) << error;

    opts.codeBase += 8;
    EXPECT_EXIT(trace::convertChampSim(champSimFixture(), out, opts),
                testing::ExitedWithCode(1), "32-bit address space");
    opts.codeBase = 0;
    opts.codeWindowBytes = 1ULL << 33;
    EXPECT_EXIT(trace::convertChampSim(champSimFixture(), out, opts),
                testing::ExitedWithCode(1), "32-bit address space");
}

TEST_F(TraceTests, ChampSimConversionRespectsMaxRecords)
{
    const std::string out = tempFile("mini-champsim-cap.kgt");
    trace::ChampSimConvertOptions opts;
    opts.maxRecords = 5;
    const trace::ChampSimConvertStats stats =
        trace::convertChampSim(champSimFixture(), out, opts);
    EXPECT_EQ(stats.records, 5u);
    std::string error;
    EXPECT_TRUE(trace::validateTrace(out, &error)) << error;
}

TEST_F(TraceTests, TraceSuiteIsDeterministicAcrossWorkerCounts)
{
    const std::string path = tempFile("suite.kgt");
    trace::writeTrace(cachedWorkload("crc32"), path);
    const std::vector<std::string> apps = {
        std::string(trace::workloadPrefix) + path};
    suiteRepeats = 2;

    runner::setJobCount(1);
    const SuiteResult serial = runSuite("t", accKaguraConfig, apps);
    runner::setJobCount(4);
    const SuiteResult parallel = runSuite("t", accKaguraConfig, apps);

    ASSERT_EQ(serial.apps.size(), 1u);
    ASSERT_EQ(parallel.apps.size(), 1u);
    ASSERT_EQ(serial.apps[0].runs.size(), parallel.apps[0].runs.size());
    for (std::size_t i = 0; i < serial.apps[0].runs.size(); ++i)
        EXPECT_TRUE(exactlyEqual(serial.apps[0].runs[i],
                                 parallel.apps[0].runs[i]))
            << "trace replay run " << i
            << " differs between --jobs 1 and --jobs 4";
}

TEST_F(TraceTests, CanonicalKeyCarriesTheTraceContentHash)
{
    const std::string path_a = tempFile("key-a.kgt");
    const std::string path_b = tempFile("key-b.kgt");
    trace::writeTrace(cachedWorkload("crc32"), path_a);
    trace::writeTrace(cachedWorkload("bitcount"), path_b);

    SimConfig kernel_cfg = accConfig("crc32");
    EXPECT_EQ(kernel_cfg.canonicalKey().find("workload.trace_hash"),
              std::string::npos);

    SimConfig cfg_a = accConfig(
        std::string(trace::workloadPrefix) + path_a);
    SimConfig cfg_b = accConfig(
        std::string(trace::workloadPrefix) + path_b);
    const std::string key_a = cfg_a.canonicalKey();
    EXPECT_NE(key_a.find("workload.trace_hash="), std::string::npos);
    EXPECT_NE(key_a.find("workload.trace_path="), std::string::npos);

    // Different file contents, different keys -- even though both are
    // spelled `trace:<path>` workloads.
    EXPECT_NE(key_a, cfg_b.canonicalKey());
    EXPECT_NE(trace::traceFileHash(path_a),
              trace::traceFileHash(path_b));
}

TEST_F(TraceTests, RegisteredAliasBecomesAKnownWorkload)
{
    const std::string path = tempFile("alias.kgt");
    trace::writeTrace(cachedWorkload("crc32"), path);
    trace::registerTraceFile("mytrace_alias", path);

    EXPECT_TRUE(workloadExists("mytrace_alias"));
    EXPECT_TRUE(trace::isTraceWorkloadName("mytrace_alias"));
    EXPECT_EQ(trace::traceWorkloadPath("mytrace_alias"), path);
    const std::vector<std::string> names =
        trace::registeredTraceNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "mytrace_alias"),
              names.end());
    EXPECT_NE(knownWorkloadsSummary().find("mytrace_alias"),
              std::string::npos);

    // The alias simulates like the underlying file.
    SimConfig by_alias = accKaguraConfig("mytrace_alias");
    SimConfig by_path = accKaguraConfig(
        std::string(trace::workloadPrefix) + path);
    Simulator alias_sim(by_alias);
    Simulator path_sim(by_path);
    EXPECT_TRUE(exactlyEqual(alias_sim.run(), path_sim.run()));

    // An alias clashing with a kernel name is rejected.
    EXPECT_EXIT(trace::registerTraceFile("crc32", path),
                testing::ExitedWithCode(1), "crc32");
}

TEST_F(TraceTests, AppSelectionRejectsUnknownNamesWithTheKnownList)
{
    // The fixed "silent fallback": a bad --apps/KAGURA_APPS name must
    // die listing the valid choices, not quietly run the default set.
    EXPECT_EXIT(bench::parseAppList("crc32,nosuchapp"),
                testing::ExitedWithCode(1),
                "unknown workload 'nosuchapp'");
    EXPECT_EXIT(bench::parseAppList(",,"), testing::ExitedWithCode(1),
                "empty app selection");
    EXPECT_EXIT(setSuiteApps({"alsonotreal"}),
                testing::ExitedWithCode(1), "alsonotreal");

    const std::vector<std::string> apps =
        bench::parseAppList("crc32,,fft,");
    ASSERT_EQ(apps.size(), 2u);
    EXPECT_EQ(apps[0], "crc32");
    EXPECT_EQ(apps[1], "fft");

    // suiteApps() reflects a valid override and can be reset.
    setSuiteApps({"crc32"});
    ASSERT_EQ(suiteApps().size(), 1u);
    EXPECT_EQ(suiteApps()[0], "crc32");
    setSuiteApps({});
    EXPECT_EQ(suiteApps().size(), workloadNames().size());
}

} // namespace
} // namespace kagura
