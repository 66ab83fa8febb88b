/**
 * @file
 * Tests for the recovery contract (ehs/recovery.hh): the two failure
 * actions against hand-built cache state, the
 * state-reset-equals-fresh-cache pin for rollback designs, the
 * per-design checkpoint register budgets, hand-computed re-execution
 * accounting across task/epoch boundaries, and worker-count
 * determinism of the two new backends.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "ehs/ehs.hh"
#include "ehs/nvmr.hh"
#include "ehs/nvsram.hh"
#include "ehs/specpersist.hh"
#include "ehs/sweepcache.hh"
#include "ehs/taskbased.hh"
#include "mem/nvm.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace kagura
{
namespace
{

struct RecoveryTest : testing::Test
{
    RecoveryTest()
        : nvm(NvmType::ReRam, 1 << 20), icache(cfg, nvm),
          dcache(cfg, nvm),
          ctx{icache, dcache, energy, nvm.params(), {}, false, 36}
    {
        informEnabled = false;
    }

    void
    dirtyStore(Addr addr, std::uint32_t value)
    {
        std::uint8_t b[4];
        std::memcpy(b, &value, 4);
        dcache.access(addr, true, b, 4, ++now);
    }

    std::uint32_t
    nvmWord(Addr addr)
    {
        std::uint8_t raw[4];
        nvm.readBytes(addr, raw, 4);
        std::uint32_t v;
        std::memcpy(&v, raw, 4);
        return v;
    }

    CacheConfig cfg{};
    Nvm nvm;
    Cache icache;
    Cache dcache;
    EnergyModel energy{};
    EhsContext ctx;
    Cycles now = 0;
};

// --- applyFailureActions ---------------------------------------------------

TEST_F(RecoveryTest, FlushDirtyMovesDirtyBlocksToNvm)
{
    dirtyStore(0x100, 0xaa);
    dirtyStore(0x200, 0xbb);
    const FlushTotals totals =
        applyFailureActions(FailureAction::FlushDirty, ctx);
    EXPECT_EQ(totals.nvmBlockWrites, 2u);
    EXPECT_EQ(totals.decompressions, 0u);
    EXPECT_EQ(dcache.validLines(), 0u);
    EXPECT_EQ(nvmWord(0x100), 0xaau);
    EXPECT_EQ(nvmWord(0x200), 0xbbu);
}

TEST_F(RecoveryTest, DropVolatileLosesDirtyOnlyData)
{
    const std::uint8_t durable[4] = {9, 0, 0, 0};
    nvm.writeBytes(0x100, durable, 4);
    dirtyStore(0x100, 0xcc);
    const FlushTotals totals =
        applyFailureActions(FailureAction::DropVolatile, ctx);
    EXPECT_EQ(totals.nvmBlockWrites, 0u);
    EXPECT_EQ(totals.decompressions, 0u);
    EXPECT_EQ(totals.absorbedWrites, 0u);
    // The dirty update never reached NVM; the pre-failure durable
    // value is what re-execution sees.
    EXPECT_EQ(nvmWord(0x100), 9u);
}

TEST_F(RecoveryTest, DroppedCacheBehavesLikeAFreshCache)
{
    // The state-reset pin: after a DropVolatile failure the cache must
    // be indistinguishable from a freshly constructed one under the
    // same access sequence (replay determinism depends on it).
    for (unsigned k = 0; k < 32; ++k)
        dirtyStore(0x1000 + k * 64, k);
    applyFailureActions(FailureAction::DropVolatile, ctx);
    EXPECT_EQ(dcache.validLines(), 0u);
    EXPECT_EQ(dcache.dirtyLines(), 0u);

    Cache fresh(cfg, nvm);
    Cycles t = 0;
    for (unsigned k = 0; k < 16; ++k) {
        dcache.access(0x2000 + k * 32, false, nullptr, 4, ++now);
        fresh.access(0x2000 + k * 32, false, nullptr, 4, ++t);
    }
    EXPECT_EQ(dcache.validLines(), fresh.validLines());
    for (unsigned k = 0; k < 16; ++k)
        EXPECT_EQ(dcache.contains(0x2000 + k * 32),
                  fresh.contains(0x2000 + k * 32))
            << "block " << k;
}

// --- checkpoint register budgets -------------------------------------------

TEST(RecoveryBudget, DesignsSelectTheComponentsTheyPersist)
{
    RegisterBudget budget;
    budget.core = 30;
    budget.l1Gcp = 2;
    budget.kagura = 6;
    budget.l2Gcp = 1;
    budget.l2Kagura = 6;

    // JIT-style designs persist everything (the default sum).
    EXPECT_EQ(NvsramEhs().checkpointRegisterWords(budget), 45u);
    EXPECT_EQ(NvmrEhs().checkpointRegisterWords(budget), 45u);
    EXPECT_EQ(SweepEhs().checkpointRegisterWords(budget), 45u);
    // TaskBased restarts tasks from their entry: no architectural
    // registers, but the 2-word commit record rides along.
    EXPECT_EQ(TaskBasedEhs().checkpointRegisterWords(budget),
              2u + 6u + 1u + 6u + TaskBasedEhs::commitRecordWords);
    // SpecPersist persists everything plus the double-buffered epoch
    // metadata.
    EXPECT_EQ(SpecPersistEhs().checkpointRegisterWords(budget),
              45u + SpecPersistEhs::epochMetadataWords);
}

TEST(RecoveryBudget, NewComponentsCannotBeSilentlyDropped)
{
    // A budget with only a hypothetical new component's words: every
    // design that uses the default sum must pick it up, and the
    // overriding designs account for all controller fields.
    RegisterBudget budget;
    budget.l2Kagura = 7;
    EXPECT_EQ(NvsramEhs().checkpointRegisterWords(budget), 7u);
    EXPECT_EQ(TaskBasedEhs().checkpointRegisterWords(budget),
              7u + TaskBasedEhs::commitRecordWords);
    EXPECT_EQ(SpecPersistEhs().checkpointRegisterWords(budget),
              7u + SpecPersistEhs::epochMetadataWords);
}

// --- forward progress under repeated failures -----------------------------

TEST(RecoveryReplayLength, HalvesFromTheSecondFailureWithACappedShift)
{
    struct Row
    {
        std::uint64_t base;
        std::uint64_t failures;
        std::uint64_t expected;
    };
    const Row rows[] = {
        {1u << 20, 0, 1u << 20}, // no failure: full length
        {1u << 20, 1, 1u << 20}, // first failure: full length
        {1u << 20, 2, 1u << 19}, // second in a row: halved
        {1u << 20, 17, 1u << 4}, // shift 16
        {1u << 20, 40, 1u << 4}, // shift capped at 16
        {1, 0, 1},
        {1, 2, 1}, // never below one instruction
        {1, 40, 1},
    };
    for (const Row &row : rows)
        EXPECT_EQ(replayLength(row.base, row.failures), row.expected)
            << "base " << row.base << ", " << row.failures
            << " failures";
}

// --- hand-computed re-execution accounting ---------------------------------

TEST_F(RecoveryTest, TaskRollbackAccountingMatchesHandComputedBoundaries)
{
    TaskBasedEhs ehs(50);
    ehs.onInstructionCommit(50, 10, ctx); // commit, boundary at 10
    ehs.onInstructionCommit(49, 90, ctx); // open task
    // Resume at op 10; the machine counts failure - resume as
    // re-executed ops.
    EXPECT_EQ(95 - ehs.resumeIndex(95), 85u);
    EXPECT_EQ(ehs.tasksCommitted(), 1u);
}

TEST_F(RecoveryTest, EpochRollbackAccountingMatchesHandComputedBoundaries)
{
    SpecPersistEhs ehs(50);
    ehs.onInstructionCommit(50, 10, ctx); // epoch 1 drains
    ehs.onInstructionCommit(50, 20, ctx); // epoch 1 durable, 2 drains
    // Up-to-two-epoch rollback: resume at op 10.
    EXPECT_EQ(33 - ehs.resumeIndex(33), 23u); // re-executed ops
    EXPECT_EQ(ehs.epochsCommitted(), 2u);
}

// --- simulator-level determinism -------------------------------------------

TEST_F(RecoveryTest, NewBackendsAreDeterministicAcrossWorkerCounts)
{
    for (EhsKind kind : {EhsKind::TaskBased, EhsKind::SpecPersist}) {
        auto shaped = [kind](const std::string &app) {
            SimConfig config = accKaguraConfig(app);
            config.ehs = kind;
            return config;
        };
        const std::vector<std::string> apps = {"crc32"};
        runner::setJobCount(1);
        const SuiteResult serial = runSuite("ehs", shaped, apps);
        runner::setJobCount(8);
        const SuiteResult parallel = runSuite("ehs", shaped, apps);
        runner::setJobCount(0);
        ASSERT_EQ(serial.apps.size(), 1u);
        ASSERT_EQ(serial.apps[0].runs.size(),
                  parallel.apps[0].runs.size());
        for (std::size_t i = 0; i < serial.apps[0].runs.size(); ++i)
            EXPECT_TRUE(exactlyEqual(serial.apps[0].runs[i],
                                     parallel.apps[0].runs[i]))
                << ehsKindName(kind) << " run " << i
                << " differs between KAGURA_JOBS=1 and 8";
    }
}

} // namespace
} // namespace kagura
