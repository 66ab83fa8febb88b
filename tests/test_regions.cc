/**
 * @file
 * Tests for the Section VII-A atomic peripheral regions extension:
 * region-entry checkpoints, JIT suppression inside regions, rollback
 * re-execution, and functional correctness under rollback.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "sim/experiment.hh"

namespace kagura
{
namespace
{

struct RegionTests : testing::Test
{
    RegionTests() { informEnabled = false; }
};

/** The `sim/ehs/reexecuted_ops` counter of @p sim's run; 0 if absent. */
std::uint64_t
reExecutedOps(const Simulator &sim)
{
    for (const metrics::Record &rec : sim.metricSet().snapshot())
        if (rec.name == "sim/ehs/reexecuted_ops")
            return static_cast<std::uint64_t>(rec.value);
    return 0;
}

TEST_F(RegionTests, RegionsAddCheckpointEnergy)
{
    SimConfig plain = baselineConfig("crc32");
    Simulator plain_sim(plain);
    const SimResult base = plain_sim.run();

    SimConfig regions = plain;
    regions.ioRegionInterval = 2000;
    Simulator region_sim(regions);
    const SimResult r = region_sim.run();

    EXPECT_GT(r.ledger.total(EnergyCategory::Checkpoint),
              base.ledger.total(EnergyCategory::Checkpoint));
}

TEST_F(RegionTests, RollbackReExecutesInstructions)
{
    SimConfig cfg = baselineConfig("crc32");
    cfg.ioRegionInterval = 1200;
    cfg.ioRegionLength = 400;
    Simulator sim(cfg);
    const SimResult r = sim.run();
    // Failures inside regions replay instructions, so the committed
    // count exceeds the trace length.
    EXPECT_GT(r.committedInstructions,
              cachedWorkload("crc32").committedInstructions());

    // The machine counts every op the region rollbacks replay: at
    // least each extra load and store the run committed.
    std::uint64_t stream_mem_ops = 0;
    for (const MicroOp &op : cachedWorkload("crc32").ops())
        stream_mem_ops += op.type == MicroOp::Type::Load ||
                          op.type == MicroOp::Type::Store;
    const std::uint64_t replayed = reExecutedOps(sim);
    EXPECT_GT(replayed, 0u);
    EXPECT_GE(replayed, r.loads + r.stores - stream_mem_ops);
}

TEST_F(RegionTests, NoRegionsMeansExactCommitCount)
{
    SimConfig cfg = baselineConfig("crc32");
    cfg.ioRegionInterval = 0;
    Simulator sim(cfg);
    EXPECT_EQ(sim.run().committedInstructions,
              cachedWorkload("crc32").committedInstructions());
    // NVSRAMCache resumes where it failed: nothing is re-executed.
    EXPECT_EQ(reExecutedOps(sim), 0u);
}

TEST_F(RegionTests, FunctionalStateSurvivesRollback)
{
    // Rollback re-execution must still produce the exact final memory
    // image: the region-entry checkpoint cleaned every dirty block, so
    // replaying the region's stores is idempotent.
    SimConfig cfg = baselineConfig("qsort");
    cfg.ioRegionInterval = 1000;
    cfg.ioRegionLength = 300;
    Simulator sim(cfg);
    const SimResult r = sim.run();
    EXPECT_GT(r.powerFailures, 0u);

    const Workload &wl = cachedWorkload("qsort");
    std::map<Addr, std::uint8_t> expected(wl.initialImage().begin(),
                                           wl.initialImage().end());
    for (const MicroOp &op : wl.ops()) {
        if (op.type != MicroOp::Type::Store)
            continue;
        for (unsigned i = 0; i < op.size; ++i)
            expected[op.addr + i] =
                static_cast<std::uint8_t>(op.value >> (8 * i));
    }
    const_cast<Cache &>(sim.dcache()).cleanAll();
    for (const auto &[addr, byte] : expected) {
        std::uint8_t actual;
        sim.nvm().readBytes(addr, &actual, 1);
        ASSERT_EQ(actual, byte) << "addr 0x" << std::hex << addr;
    }
}

TEST_F(RegionTests, WorksWithCompressionStack)
{
    SimConfig cfg = accKaguraConfig("g721d");
    cfg.ioRegionInterval = 1500;
    Simulator sim(cfg);
    const SimResult r = sim.run();
    EXPECT_GE(r.committedInstructions,
              cachedWorkload("g721d").committedInstructions());
    EXPECT_GT(r.kagura.modeSwitches, 0u);
}

TEST_F(RegionTests, InfiniteEnergyRegionsNeverRollBack)
{
    SimConfig cfg = baselineConfig("crc32");
    cfg.ioRegionInterval = 1000;
    cfg.infiniteEnergy = true;
    Simulator sim(cfg);
    const SimResult r = sim.run();
    EXPECT_EQ(r.powerFailures, 0u);
    EXPECT_EQ(r.committedInstructions,
              cachedWorkload("crc32").committedInstructions());
}

} // namespace
} // namespace kagura
