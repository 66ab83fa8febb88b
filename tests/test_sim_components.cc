/**
 * @file
 * Tests for the layered simulator architecture: the EnergyMeter, the
 * governor-chain factory, the EhsContext value semantics behind the
 * shared checkpointCost() formula and the commit-boundary persist, and
 * the Simulator's checkpoint register budget.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/acc.hh"
#include "cache/chain.hh"
#include "core/core.hh"
#include "ehs/ehs.hh"
#include "energy/meter.hh"
#include "kagura/kagura.hh"
#include "kagura/oracle.hh"
#include "mem/nvm.hh"

namespace kagura
{
namespace
{

// --- EnergyMeter ---------------------------------------------------------

struct MeterTest : testing::Test
{
    /** Meter fed by a constant @p watts ambient source. */
    EnergyMeter &
    make(Watts watts, bool infinite = false, Watts cache_leak = 0.0,
         Watts nvm_standby = 0.0)
    {
        meter = std::make_unique<EnergyMeter>(
            cap, energy, cache_leak, nvm_standby,
            std::make_unique<VectorTrace>(
                "const", std::vector<Watts>{watts}),
            ledger, infinite);
        return *meter;
    }

    CapacitorConfig cap{};
    EnergyModel energy{};
    EnergyLedger ledger;
    std::unique_ptr<EnergyMeter> meter;
};

TEST_F(MeterTest, SpendDrawsLedgerAndCapacitorTogether)
{
    EnergyMeter &m = make(0.0);
    m.capacitor().setVoltage(3.0);
    const ZeptoJoules before = m.stored();
    m.spend(EnergyCategory::Compress, 1e6); // 1e6 pJ = 1 uJ
    EXPECT_EQ(ledger.totalZj(EnergyCategory::Compress), 1'000'000'000'000'000);
    EXPECT_DOUBLE_EQ(ledger.total(EnergyCategory::Compress), 1e6);
    EXPECT_EQ(before - m.stored(), 1'000'000'000'000'000);
    EXPECT_EQ(m.unfunded(), 0);
}

TEST_F(MeterTest, NonPositiveSpendsAreIgnored)
{
    EnergyMeter &m = make(0.0);
    const ZeptoJoules before = m.stored();
    m.spend(EnergyCategory::Memory, 0.0);
    m.spend(EnergyCategory::Memory, -5.0);
    EXPECT_EQ(ledger.grandTotalZj(), 0);
    EXPECT_EQ(m.stored(), before);
}

TEST_F(MeterTest, InfiniteEnergyMetersButNeverDischarges)
{
    EnergyMeter &m = make(0.0, /*infinite=*/true);
    m.capacitor().setVoltage(3.0);
    const ZeptoJoules before = m.stored();
    m.spend(EnergyCategory::Checkpoint, 5e7);
    EXPECT_EQ(ledger.totalZj(EnergyCategory::Checkpoint), picoToZepto(5e7));
    EXPECT_EQ(m.stored(), before);
    EXPECT_EQ(m.unfunded(), picoToZepto(5e7)) << "nothing was funded";
    EXPECT_TRUE(m.infiniteEnergy());
    EXPECT_FALSE(m.failureImminent());
}

TEST_F(MeterTest, AdvanceWallHarvestsPerInterval)
{
    EnergyMeter &m = make(0.5);
    m.capacitor().setVoltage(cap.vShutdown);
    const ZeptoJoules before = m.stored();
    const Cycles ivl = energy.cyclesPerTraceInterval();
    m.advanceWall(ivl - 1);
    EXPECT_EQ(m.stored(), before) << "the interval has not closed yet";
    m.advanceWall(1);
    EXPECT_EQ(m.wall(), ivl);
    // One interval of 0.5 W harvest (capped only at vMax).
    EXPECT_EQ(m.stored() - before, joulesToZepto(0.5 * energy.traceInterval));
    EXPECT_EQ(m.harvested(), m.stored() - before);
    EXPECT_EQ(m.spilled(), 0);
}

TEST_F(MeterTest, ChargeStaticPowerHitsAllStandingCategories)
{
    EnergyMeter &m = make(0.0, false, /*cache_leak=*/1e-6,
                          /*nvm_standby=*/2e-6);
    m.capacitor().setVoltage(3.0);
    m.chargeStaticPower(1000);
    EXPECT_GT(ledger.total(EnergyCategory::CacheOther), 0.0);
    EXPECT_GT(ledger.total(EnergyCategory::Memory), 0.0);
    EXPECT_GT(ledger.total(EnergyCategory::Others), 0.0);
    EXPECT_EQ(m.wall(), 0u) << "static power must not advance time";
}

TEST_F(MeterTest, RechargeUntilRestoreReachesTheThreshold)
{
    EnergyMeter &m = make(0.5);
    m.capacitor().setVoltage(cap.vShutdown);
    EXPECT_FALSE(m.capacitor().aboveRestore());
    m.rechargeUntilRestore();
    EXPECT_TRUE(m.capacitor().aboveRestore());
    EXPECT_GT(m.wall(), 0u) << "recharge must consume wall time";
    // Off-state capacitor leakage is metered as Others.
    EXPECT_GT(ledger.total(EnergyCategory::Others), 0.0);
}

TEST_F(MeterTest, FailureImminentTracksTheCheckpointThreshold)
{
    EnergyMeter &m = make(0.0);
    m.capacitor().setVoltage(cap.vRestore);
    EXPECT_FALSE(m.failureImminent());
    m.capacitor().setVoltage(cap.vCheckpoint - 0.01);
    EXPECT_TRUE(m.failureImminent());
}

// --- governor-chain factory ----------------------------------------------

TEST(GovernorChainFactory, NoneProducesAnEmptyChain)
{
    const GovernorChain chain = makeGovernorChain({});
    EXPECT_EQ(chain.head, nullptr);
    EXPECT_FALSE(chain.fixed || chain.acc || chain.gate ||
                 chain.recorder || chain.replayer);
}

TEST(GovernorChainFactory, StagesStackInCanonicalOrder)
{
    GovernorChainSpec spec;
    spec.governor = GovernorKind::Always;
    GovernorChain chain = makeGovernorChain(spec);
    EXPECT_EQ(chain.head, chain.fixed.get());

    spec.governor = GovernorKind::Acc;
    chain = makeGovernorChain(spec);
    EXPECT_EQ(chain.head, chain.acc.get());

    KaguraController kagura{KaguraConfig{}, nullptr};
    spec.kagura = &kagura;
    chain = makeGovernorChain(spec);
    EXPECT_EQ(chain.head, chain.gate.get())
        << "KaguraGate must wrap the inner governor";
    EXPECT_TRUE(chain.acc);

    spec.oracle = OracleMode::Record;
    chain = makeGovernorChain(spec);
    EXPECT_EQ(chain.head, chain.recorder.get())
        << "the oracle is the outermost stage";

    OracleLog log;
    spec.oracle = OracleMode::Replay;
    spec.oracleLog = &log;
    chain = makeGovernorChain(spec);
    EXPECT_EQ(chain.head, chain.replayer.get());
}

TEST(GovernorChainFactory, ReplayWithoutLogIsFatal)
{
    GovernorChainSpec spec;
    spec.governor = GovernorKind::Acc;
    spec.oracle = OracleMode::Replay;
    EXPECT_EXIT({ makeGovernorChain(spec); },
                testing::ExitedWithCode(1), "phase-1 log");
}

// --- EhsContext value semantics + shared checkpoint formula --------------

struct EhsContextTest : testing::Test
{
    EhsContextTest()
        : nvm(NvmType::ReRam, 1 << 20), icache(cfg, nvm),
          dcache(cfg, nvm)
    {
    }

    CacheConfig cfg{};
    Nvm nvm;
    Cache icache;
    Cache dcache;
    EnergyModel energy{};
};

TEST_F(EhsContextTest, CheckpointCostMatchesTheSharedFormula)
{
    CompressionCosts comp{};
    comp.decompressEnergy = 7.5;
    comp.decompressLatency = 3;
    const EhsContext ctx{icache, dcache,  energy, nvm.params(),
                         comp,   true,    36};

    const EhsCost cost = ctx.checkpointCost(4, 2, 10);
    EXPECT_EQ(cost.nvmBlockWrites, 4u);
    EXPECT_EQ(cost.decompressions, 2u);
    EXPECT_EQ(cost.cycles, 4 * 10 + 2 * 3 + 36u);
    EXPECT_DOUBLE_EQ(cost.energy, 4 * nvm.params().writeEnergy +
                                      2 * 7.5 +
                                      36 * energy.nvffWrite);
}

TEST_F(EhsContextTest, DecompressionsCostNothingWithoutCompression)
{
    const EhsContext ctx{icache,        dcache, energy, nvm.params(),
                         CompressionCosts{}, false, 36};
    const EhsCost cost = ctx.checkpointCost(1, 5, 10);
    EXPECT_DOUBLE_EQ(cost.energy, nvm.params().writeEnergy +
                                      36 * energy.nvffWrite);
    EXPECT_EQ(cost.cycles, 10 + 36u);
}

TEST_F(EhsContextTest, CompressionCostsAreHeldByValue)
{
    CompressionCosts comp{};
    comp.decompressEnergy = 1.0;
    EhsContext ctx{icache, dcache, energy, nvm.params(), comp, true,
                   36};
    comp.decompressEnergy = 999.0; // the context must not alias this
    const EhsCost cost = ctx.checkpointCost(0, 1, 0);
    EXPECT_DOUBLE_EQ(cost.energy, 1.0 + 36 * energy.nvffWrite);
}

TEST_F(EhsContextTest, PersistDirtyCleansEveryLevelAndChargesTheL2)
{
    // L1 -> 1 KiB L2 -> NVM. Two dirty L1 blocks whose clean copies
    // sit in the L2: the dcache clean is absorbed by the L2 in place
    // (two SRAM writes), then the L2 clean pushes both to NVM.
    CacheConfig l2cfg{};
    l2cfg.sizeBytes = 1024;
    l2cfg.ways = 4;
    Cache l2(l2cfg, nvm);
    Cache l1i(cfg, l2);
    Cache l1d(cfg, l2);
    std::uint8_t word[4] = {1, 2, 3, 4};
    l1d.access(0x100, true, word, 4, 1);
    l1d.access(0x200, true, word, 4, 2);
    ASSERT_EQ(l1d.dirtyLines(), 2u);
    ASSERT_EQ(l2.dirtyLines(), 0u);

    EhsContext ctx{l1i, l1d, energy, nvm.params(), CompressionCosts{},
                   false, 36, &l2};
    const EhsCost cost = ctx.persistDirty(10, /*extra_writes=*/1);

    EXPECT_EQ(l1d.dirtyLines(), 0u);
    EXPECT_EQ(l2.dirtyLines(), 0u);
    EXPECT_EQ(l1d.validLines(), 2u) << "a clean keeps the contents";
    // 2 L2 writebacks + 1 commit record, each at 10 cycles; 36
    // register words; 2 absorbed writes at one cycle each.
    EXPECT_EQ(cost.nvmBlockWrites, 3u);
    EXPECT_EQ(cost.cycles, 3 * 10 + 36 + 2u);
    EXPECT_DOUBLE_EQ(cost.energy,
                     3 * nvm.params().writeEnergy +
                         36 * energy.nvffWrite +
                         2 * energy.cacheAccessEnergy(1024));
}

// --- Simulator wiring ----------------------------------------------------

TEST(SimulatorComponents, CheckpointWordsStartFromTheCoreConstant)
{
    // 32 architectural registers + 4 store-buffer entries; governors
    // add their controller registers on top (see Simulator ctor).
    EXPECT_EQ(Core::checkpointWords, 36u);
}

} // namespace
} // namespace kagura
