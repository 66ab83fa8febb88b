/**
 * @file
 * Tests for the core model (fetch line buffer, step accounting) and
 * the 20 synthetic workloads (determinism, structural properties,
 * arithmetic-intensity ordering, alignment invariants).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/core.hh"
#include "core/workload.hh"
#include "mem/nvm.hh"

namespace kagura
{
namespace
{

// --- trace recorder -----------------------------------------------------

TEST(TraceRecorder, RecordsOpsInOrder)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(64);
    rec.alu(3);
    rec.store(a, 0x12345678, 4);
    const std::uint64_t v = rec.load(a, 4);
    EXPECT_EQ(v, 0x12345678u);
    Workload wl = rec.finish("t");
    ASSERT_EQ(wl.ops().size(), 3u);
    EXPECT_EQ(wl.ops()[0].type, MicroOp::Type::Alu);
    EXPECT_EQ(wl.ops()[0].count, 3u);
    EXPECT_EQ(wl.ops()[1].type, MicroOp::Type::Store);
    EXPECT_EQ(wl.ops()[2].type, MicroOp::Type::Load);
    EXPECT_EQ(wl.committedInstructions(), 5u);
    EXPECT_EQ(wl.memoryOps(), 2u);
}

TEST(TraceRecorder, FunctionalMemorySeesInitAndStores)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(16);
    rec.initValue(a, 0xaabb, 2);
    EXPECT_EQ(rec.peek(a, 2), 0xaabbu);
    rec.store(a, 0xccdd, 2);
    EXPECT_EQ(rec.peek(a, 2), 0xccddu);
    // Initial image keeps the pre-store value.
    Workload wl = rec.finish("t");
    const std::map<Addr, std::uint8_t> image(wl.initialImage().begin(),
                                             wl.initialImage().end());
    EXPECT_EQ(image.at(a), 0xbb);
}

TEST(TraceRecorder, LoopsResetThePc)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(8);
    rec.beginLoop();
    for (int i = 0; i < 3; ++i) {
        rec.load(a, 4);
        rec.endIteration();
    }
    rec.endLoop();
    Workload wl = rec.finish("t");
    ASSERT_EQ(wl.ops().size(), 3u);
    EXPECT_EQ(wl.ops()[0].pc, wl.ops()[1].pc);
    EXPECT_EQ(wl.ops()[1].pc, wl.ops()[2].pc);
}

TEST(TraceRecorder, NestedLoopsRestorePcPastTheBody)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(8);
    rec.beginLoop();
    rec.load(a, 4); // pc P
    rec.beginLoop();
    rec.load(a, 4);
    rec.endIteration();
    rec.endLoop();
    rec.endIteration();
    rec.endLoop();
    rec.load(a, 4); // must be beyond every loop pc
    Workload wl = rec.finish("t");
    const Addr last = wl.ops().back().pc;
    for (std::size_t i = 0; i + 1 < wl.ops().size(); ++i)
        EXPECT_LT(wl.ops()[i].pc, last);
}

TEST(TraceRecorder, AllocationsAreAligned)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(3);
    const Addr b = rec.allocate(5);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_GE(b, a + 8);
}

TEST(TraceRecorder, CodeImageIsGenerated)
{
    TraceRecorder rec;
    rec.alu(10);
    Workload wl = rec.finish("t");
    // The executed PC range carries synthetic instruction bytes.
    const Addr pc0 = wl.ops()[0].pc;
    const std::map<Addr, std::uint8_t> image(wl.initialImage().begin(),
                                             wl.initialImage().end());
    bool nonzero = false;
    for (unsigned i = 0; i < 40; ++i) {
        auto it = image.find(pc0 + i);
        if (it != image.end() && it->second != 0)
            nonzero = true;
    }
    EXPECT_TRUE(nonzero);
}

TEST(TraceRecorder, ImageKeepsTheLastInitWriteAndCodeOnlyInGaps)
{
    TraceRecorder rec(0x8000, 0x100000);
    const std::uint8_t first[6] = {1, 2, 3, 4, 5, 6};
    const std::uint8_t second[4] = {7, 8, 9, 10};
    rec.initData(0x100000, first, sizeof(first));
    rec.initValue(0x100002, 0xbbaa, 2);            // overwrites 3, 4
    rec.initData(0x100004, second, sizeof(second)); // overlaps the tail
    rec.initValue(0x8004, 0xeeddccbb, 4);           // inside the code
    rec.initValue(0x7ffe, 0x1122, 2);               // abuts the code
    rec.store(0x100000, 0xff, 1); // a store never reaches the image
    rec.alu(3);
    const Workload wl = rec.finish("t");

    std::map<Addr, std::uint8_t> image;
    for (const auto &[addr, byte] : wl.initialImage())
        image.emplace(addr, byte);
    const std::map<Addr, std::uint8_t> data = {
        {0x100000, 1},  {0x100001, 2},  {0x100002, 0xaa},
        {0x100003, 0xbb}, {0x100004, 7}, {0x100005, 8},
        {0x100006, 9},  {0x100007, 10}, {0x7ffe, 0x22},
        {0x7fff, 0x11}, {0x8004, 0xbb}, {0x8005, 0xcc},
        {0x8006, 0xdd}, {0x8007, 0xee}};
    for (const auto &[addr, byte] : data)
        EXPECT_EQ(image.at(addr), byte) << std::hex << addr;
    // The code bytes fill [0x8000, 0x8014): one store op and three ALU
    // instructions, plus the word past the last one.
    for (Addr a = 0x8000; a < 0x8014; ++a)
        EXPECT_EQ(image.count(a), 1u) << std::hex << a;
    EXPECT_EQ(image.size(), 14u + 20u - 4u);
    EXPECT_EQ(image.count(0x8014), 0u);
    EXPECT_EQ(image.count(0x100008), 0u);
}

TEST(TraceRecorder, PcMustFitThirtyTwoBits)
{
    TraceRecorder rec(0xfffffff8);
    rec.alu(2); // the last two words of the 32-bit space
    EXPECT_EQ(rec.finish("t").ops()[0].pc, 0xfffffff8u);
    EXPECT_DEATH(
        {
            TraceRecorder wide(0xfffffffc);
            wide.alu(1);
            wide.load(0x100000, 4); // at 2^32
        },
        "pc <= maxPc");
}

// --- workload registry ---------------------------------------------------

TEST(Workloads, TwentyApplications)
{
    EXPECT_EQ(workloadNames().size(), 20u);
    std::set<std::string> unique(workloadNames().begin(),
                                 workloadNames().end());
    EXPECT_EQ(unique.size(), 20u);
}

TEST(Workloads, PaperAppsArePresent)
{
    const std::set<std::string> names(workloadNames().begin(),
                                      workloadNames().end());
    for (const char *app :
         {"blowfish", "blowfishd", "g721d", "g721e", "jpeg", "jpegd",
          "mpeg2d", "susans", "typeset", "patricia", "strings"}) {
        EXPECT_TRUE(names.count(app)) << app;
    }
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_EXIT({ makeWorkload("nonexistent"); },
                testing::ExitedWithCode(1), "unknown workload");
}

/** Fold @p value into FNV-1a state @p h as @p bytes little-endian bytes. */
void
fnvFoldLe(std::uint64_t &h, std::uint64_t value, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i) {
        h ^= (value >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/**
 * FNV-1a over every op (all six fields, PC widened to 64 bits) and
 * every contiguous image run (base, length, bytes), so any change to
 * how a workload is stored must leave this number alone.
 */
std::uint64_t
workloadDigest(const Workload &wl)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const MicroOp &op : wl.ops()) {
        fnvFoldLe(h, static_cast<std::uint64_t>(op.type), 1);
        fnvFoldLe(h, op.size, 1);
        fnvFoldLe(h, op.count, 2);
        fnvFoldLe(h, static_cast<std::uint64_t>(op.pc), 8);
        fnvFoldLe(h, op.addr, 8);
        fnvFoldLe(h, op.value, 8);
    }
    std::vector<std::pair<Addr, std::vector<std::uint8_t>>> runs;
    for (const auto &[addr, byte] : wl.initialImage()) {
        if (runs.empty() ||
            runs.back().first + runs.back().second.size() != addr)
            runs.push_back({addr, {}});
        runs.back().second.push_back(byte);
    }
    for (const auto &[base, bytes] : runs) {
        fnvFoldLe(h, base, 8);
        fnvFoldLe(h, bytes.size(), 8);
        for (const std::uint8_t byte : bytes)
            fnvFoldLe(h, byte, 1);
    }
    return h;
}

TEST(Workloads, OpsAndImagesArePinned)
{
    const std::map<std::string, std::uint64_t> pinned = {
        {"adpcm_c", 0x7d7d2d598c565dd0ULL},
        {"adpcm_d", 0x415decc0eaa7c085ULL},
        {"basicmath", 0xf61ab1c7f694c5f3ULL},
        {"bitcount", 0x24e53e9f895d735bULL},
        {"blowfish", 0x3986544bff6e0685ULL},
        {"blowfishd", 0x2c716c405210f8b0ULL},
        {"crc32", 0x892a2529249e4ff0ULL},
        {"dijkstra", 0xd82d3424aa7752eeULL},
        {"fft", 0x0001e899e73a1bd1ULL},
        {"g721d", 0x1c5df5cd51b4b322ULL},
        {"g721e", 0x4435f8d9a702bb1fULL},
        {"jpeg", 0x83d309fc656efed8ULL},
        {"jpegd", 0x8d8124cb75b848caULL},
        {"mpeg2d", 0x23c310a9384279cfULL},
        {"patricia", 0x00d4f1aabe672d7fULL},
        {"qsort", 0xd3bb818dfa7dccb1ULL},
        {"sha", 0x9158a7cb4edb17f5ULL},
        {"strings", 0xff64c35f9c90c196ULL},
        {"susans", 0x8ef25e35da6e3928ULL},
        {"typeset", 0x141b683ef3f4173bULL},
        {"aiot_dnn", 0x48fce1f082a65146ULL},
    };
    std::vector<std::string> names = workloadNames();
    names.insert(names.end(), extensionWorkloadNames().begin(),
                 extensionWorkloadNames().end());
    for (const std::string &name : names) {
        const std::uint64_t got = workloadDigest(cachedWorkload(name));
        const auto it = pinned.find(name);
        if (it == pinned.end())
            ADD_FAILURE() << name << " has no pinned digest";
        else
            EXPECT_EQ(got, it->second) << name;
    }
    EXPECT_EQ(pinned.size(), names.size());
}

TEST(Workloads, CachedBuilderReturnsSameObject)
{
    const Workload &a = cachedWorkload("crc32");
    const Workload &b = cachedWorkload("crc32");
    EXPECT_EQ(&a, &b);
}

TEST(Workloads, MemoBuildsEachNameOnceOutsideItsLock)
{
    // Four threads ask for one name while its build is still running:
    // they must share one object from one build. The slow build waits
    // for a second name's build to finish, which it can only do if the
    // memo does not hold its lock across builds.
    std::atomic<int> builds{0};
    std::mutex mutex;
    std::condition_variable cv;
    bool slow_started = false;
    bool other_built = false;
    bool overlapped = false;
    WorkloadMemo memo([&](const std::string &name) {
        ++builds;
        std::unique_lock<std::mutex> lock(mutex);
        if (name == "crc32") {
            slow_started = true;
            cv.notify_all();
            overlapped = cv.wait_for(lock, std::chrono::seconds(10),
                                     [&] { return other_built; });
        } else {
            other_built = true;
            cv.notify_all();
        }
        lock.unlock();
        return makeWorkload(name);
    });

    std::vector<const Workload *> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seen.size(); ++i)
        threads.emplace_back([&, i] { seen[i] = &memo.get("crc32"); });
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return slow_started; });
    }
    const Workload &other = memo.get("sha");
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_TRUE(overlapped);
    EXPECT_EQ(builds.load(), 2);
    for (const Workload *wl : seen)
        EXPECT_EQ(wl, seen[0]);
    EXPECT_EQ(seen[0]->name(), "crc32");
    EXPECT_EQ(&memo.get("crc32"), seen[0]);
    EXPECT_EQ(&memo.get("sha"), &other);
    EXPECT_EQ(builds.load(), 2);
}

TEST(Workloads, DeterministicAcrossBuilds)
{
    const Workload a = makeWorkload("dijkstra");
    const Workload b = makeWorkload("dijkstra");
    ASSERT_EQ(a.ops().size(), b.ops().size());
    for (std::size_t i = 0; i < a.ops().size(); i += 97) {
        EXPECT_EQ(a.ops()[i].pc, b.ops()[i].pc);
        EXPECT_EQ(a.ops()[i].addr, b.ops()[i].addr);
        EXPECT_EQ(a.ops()[i].value, b.ops()[i].value);
    }
    EXPECT_EQ(a.imageRuns(), b.imageRuns());
}

class WorkloadProperties : public testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadProperties, ReasonableLength)
{
    const Workload &wl = cachedWorkload(GetParam());
    EXPECT_GE(wl.committedInstructions(), 75000u);
    EXPECT_LE(wl.committedInstructions(), 1200000u);
}

TEST_P(WorkloadProperties, AccessesNeverCrossBlocks)
{
    const Workload &wl = cachedWorkload(GetParam());
    for (const MicroOp &op : wl.ops()) {
        if (op.type == MicroOp::Type::Alu)
            continue;
        ASSERT_EQ(op.addr / 32, (op.addr + op.size - 1) / 32)
            << "addr " << op.addr << " size " << unsigned(op.size);
    }
}

TEST_P(WorkloadProperties, HasMemoryTraffic)
{
    const Workload &wl = cachedWorkload(GetParam());
    EXPECT_GT(wl.memoryOps(), 1000u);
}

TEST_P(WorkloadProperties, PcsCoverABoundedCodeFootprint)
{
    const Workload &wl = cachedWorkload(GetParam());
    Addr min_pc = ~0ULL, max_pc = 0;
    for (const MicroOp &op : wl.ops()) {
        min_pc = std::min<Addr>(min_pc, op.pc);
        max_pc = std::max<Addr>(max_pc, op.pc);
    }
    // Embedded kernels: code footprints in the hundreds of bytes to a
    // few tens of kilobytes.
    EXPECT_LT(max_pc - min_pc, 64u * 1024u) << wl.name();
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadProperties,
                         testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(Workloads, IntensityStudySpansTheRange)
{
    // Fig. 17 premise: the six selected apps cover low -> high
    // arithmetic intensity, with jpegd/jpeg at the memory-bound end
    // and patricia/strings at the compute-bound end.
    const auto &names = intensityStudyNames();
    ASSERT_EQ(names.size(), 6u);
    const double lo =
        std::min(cachedWorkload(names[0]).arithmeticIntensity(),
                 cachedWorkload(names[1]).arithmeticIntensity());
    const double hi =
        std::max(cachedWorkload(names[4]).arithmeticIntensity(),
                 cachedWorkload(names[5]).arithmeticIntensity());
    EXPECT_LT(lo, 2.5);
    EXPECT_GT(hi, 6.0);
}

// --- core ----------------------------------------------------------------

struct CoreTest : testing::Test
{
    CoreTest()
        : nvm(NvmType::ReRam, 1 << 20), icache(cfg, nvm),
          dcache(cfg, nvm), core(icache, dcache)
    {
    }

    CacheConfig cfg{};
    Nvm nvm;
    Cache icache;
    Cache dcache;
    Core core;
};

TEST_F(CoreTest, AluGroupFetchesThroughLineBuffer)
{
    MicroOp op;
    op.type = MicroOp::Type::Alu;
    op.count = 8; // exactly one 32 B block of instructions
    op.pc = 0x8000;
    const StepResult r = core.step(op, 1);
    EXPECT_EQ(r.instructions, 8u);
    // One array access (the line-buffer fill), seven buffered fetches.
    EXPECT_EQ(r.icacheArrayAccesses, 1u);
    EXPECT_EQ(icache.stats().accesses, 1u);
}

TEST_F(CoreTest, LineBufferPersistsAcrossSteps)
{
    MicroOp op;
    op.type = MicroOp::Type::Alu;
    op.count = 1;
    op.pc = 0x8000;
    core.step(op, 1);
    op.pc = 0x8004; // same block
    const StepResult r = core.step(op, 2);
    EXPECT_EQ(r.icacheArrayAccesses, 0u);
}

TEST_F(CoreTest, FlushFetchBufferForcesRefetch)
{
    MicroOp op;
    op.type = MicroOp::Type::Alu;
    op.count = 1;
    op.pc = 0x8000;
    core.step(op, 1);
    core.flushFetchBuffer();
    const StepResult r = core.step(op, 2);
    EXPECT_EQ(r.icacheArrayAccesses, 1u);
}

TEST_F(CoreTest, LoadGoesThroughDCache)
{
    MicroOp op;
    op.type = MicroOp::Type::Load;
    op.size = 4;
    op.pc = 0x8000;
    op.addr = 0x1000;
    const StepResult r = core.step(op, 1);
    EXPECT_TRUE(r.isMem);
    EXPECT_FALSE(r.isStore);
    EXPECT_EQ(dcache.stats().accesses, 1u);
    EXPECT_EQ(r.dcache.nvmBlockReads, 1u);
}

TEST_F(CoreTest, StoreWritesThroughTheCache)
{
    MicroOp op;
    op.type = MicroOp::Type::Store;
    op.size = 4;
    op.pc = 0x8000;
    op.addr = 0x2000;
    op.value = 0xfeedface;
    const StepResult r = core.step(op, 1);
    EXPECT_TRUE(r.isStore);
    EXPECT_EQ(dcache.dirtyLines(), 1u);
    dcache.flushAndInvalidate();
    std::uint8_t raw[4];
    nvm.readBytes(0x2000, raw, 4);
    std::uint32_t v;
    std::memcpy(&v, raw, 4);
    EXPECT_EQ(v, 0xfeedfaceu);
}

TEST_F(CoreTest, CyclesAccumulateLatencies)
{
    MicroOp op;
    op.type = MicroOp::Type::Load;
    op.size = 4;
    op.pc = 0x8000;
    op.addr = 0x1000;
    const StepResult miss = core.step(op, 1);
    const StepResult hit = core.step(op, 2);
    EXPECT_GT(miss.cycles, hit.cycles);
    // A hot load: 1 cycle fetch (buffered) + 1 cycle dcache hit.
    EXPECT_EQ(hit.cycles, 2u);
}

} // namespace
} // namespace kagura
