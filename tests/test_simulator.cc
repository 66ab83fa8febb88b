/**
 * @file
 * Integration tests: the full simulator across its configuration
 * space -- power state machine, determinism, functional correctness
 * of the memory image after a run, energy accounting, EHS designs,
 * Kagura, the ideal oracle, and the experiment helpers.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "compress/compressor.hh"
#include "metrics/sink.hh"
#include "runner/cache_store.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"

namespace kagura
{
namespace
{

struct QuietTests : testing::Test
{
    QuietTests() { informEnabled = false; }
};

/** Small-but-real app for integration runs. */
SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.workload = "crc32";
    return cfg;
}

TEST_F(QuietTests, BaselineRunsToCompletion)
{
    Simulator sim(smallConfig());
    const SimResult r = sim.run();
    const Workload &wl = cachedWorkload("crc32");
    EXPECT_EQ(r.committedInstructions, wl.committedInstructions());
    EXPECT_EQ(r.loads + r.stores, wl.memoryOps());
    EXPECT_GT(r.wallCycles, r.activeCycles);
    EXPECT_GT(r.powerFailures, 10u);
    EXPECT_GT(r.ledger.grandTotal(), 0.0);
}

TEST_F(QuietTests, DeterministicAcrossRuns)
{
    Simulator a(smallConfig()), b(smallConfig());
    const SimResult ra = a.run();
    const SimResult rb = b.run();
    EXPECT_EQ(ra.wallCycles, rb.wallCycles);
    EXPECT_EQ(ra.powerFailures, rb.powerFailures);
    EXPECT_DOUBLE_EQ(ra.ledger.grandTotal(), rb.ledger.grandTotal());
    EXPECT_EQ(ra.dcache.misses, rb.dcache.misses);
}

TEST_F(QuietTests, TraceSeedChangesTheRun)
{
    SimConfig cfg = smallConfig();
    Simulator a(cfg);
    cfg.traceSeed = 0x1234;
    Simulator b(cfg);
    EXPECT_NE(a.run().wallCycles, b.run().wallCycles);
}

TEST_F(QuietTests, InfiniteEnergyNeverFails)
{
    SimConfig cfg = smallConfig();
    cfg.infiniteEnergy = true;
    Simulator sim(cfg);
    const SimResult r = sim.run();
    EXPECT_EQ(r.powerFailures, 0u);
    EXPECT_EQ(r.wallCycles, r.activeCycles);
}

TEST_F(QuietTests, PowerCycleRecordsSumToTotals)
{
    Simulator sim(smallConfig());
    const SimResult r = sim.run();
    std::uint64_t instr = 0, loads = 0, stores = 0;
    for (const PowerCycleRecord &rec : r.cycles) {
        instr += rec.instructions;
        loads += rec.loads;
        stores += rec.stores;
    }
    EXPECT_EQ(instr, r.committedInstructions);
    EXPECT_EQ(loads, r.loads);
    EXPECT_EQ(stores, r.stores);
    EXPECT_EQ(r.cycles.size(), r.powerFailures + 1); // final partial
}

TEST_F(QuietTests, FunctionalMemoryImageMatchesRecorder)
{
    // Property: after the run (with JIT checkpointing flushing every
    // dirty block at each failure and the caches drained at the end),
    // NVM holds exactly the bytes the host-run kernel computed.
    for (const char *app : {"crc32", "qsort", "adpcm_c"}) {
        SimConfig cfg;
        cfg.workload = app;
        Simulator sim(cfg);
        sim.run();

        // Reconstruct the expected final memory: image + stores.
        const Workload &wl = cachedWorkload(app);
        std::map<Addr, std::uint8_t> expected(wl.initialImage().begin(),
                                           wl.initialImage().end());
        for (const MicroOp &op : wl.ops()) {
            if (op.type != MicroOp::Type::Store)
                continue;
            for (unsigned i = 0; i < op.size; ++i)
                expected[op.addr + i] =
                    static_cast<std::uint8_t>(op.value >> (8 * i));
        }

        // Drain the caches and compare NVM against the expectation.
        const_cast<Cache &>(sim.dcache()).cleanAll();
        std::size_t checked = 0;
        for (const auto &[addr, byte] : expected) {
            std::uint8_t actual;
            sim.nvm().readBytes(addr, &actual, 1);
            ASSERT_EQ(actual, byte)
                << app << " addr 0x" << std::hex << addr;
            ++checked;
        }
        EXPECT_GT(checked, 1000u) << app;
    }
}

TEST_F(QuietTests, CompressionPreservesFunctionalState)
{
    // The same property with the full ACC+Kagura stack enabled.
    SimConfig cfg = accKaguraConfig("qsort");
    Simulator sim(cfg);
    sim.run();
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

TEST_F(QuietTests, EnergyLedgerCoversAllCategories)
{
    Simulator sim(accConfig("g721d"));
    const SimResult r = sim.run();
    EXPECT_GT(r.ledger.total(EnergyCategory::Compress), 0.0);
    EXPECT_GT(r.ledger.total(EnergyCategory::Decompress), 0.0);
    EXPECT_GT(r.ledger.total(EnergyCategory::CacheOther), 0.0);
    EXPECT_GT(r.ledger.total(EnergyCategory::Memory), 0.0);
    EXPECT_GT(r.ledger.total(EnergyCategory::Checkpoint), 0.0);
    EXPECT_GT(r.ledger.total(EnergyCategory::Others), 0.0);
}

TEST_F(QuietTests, EveryLevelsCompressionsAndCompactionsAreCharged)
{
    // An I-cache under BDI+ACC in front of a compressed L2, with the
    // prefetcher on: I-cache fills and prefetches compact lines too,
    // and each one must reach the Compress bucket exactly once.
    SimConfig cfg = accConfig("jpeg");
    std::string error;
    ASSERT_TRUE(applyL2Spec("1024x4:acc", cfg, error)) << error;
    cfg.enablePrefetch = true;
    Simulator sim(cfg);
    const SimResult r = sim.run();
    ASSERT_GT(r.icache.compactions, 0u);
    ASSERT_GT(r.l2cache.compressions, 0u);
    ASSERT_GT(r.dcache.prefetchFills, 0u);

    const std::unique_ptr<Compressor> comp = makeCompressor(cfg.compressor);
    const std::uint64_t compressions = r.icache.compressions +
                                       r.dcache.compressions +
                                       r.l2cache.compressions;
    const std::uint64_t compactions = r.icache.compactions +
                                      r.dcache.compactions +
                                      r.l2cache.compactions;
    EXPECT_EQ(r.ledger.totalZj(EnergyCategory::Compress),
              static_cast<ZeptoJoules>(compressions) *
                      picoToZepto(comp->costs().compressEnergy) +
                  static_cast<ZeptoJoules>(compactions) *
                      picoToZepto(cfg.energy.compactionEnergy));
}

/**
 * Run @p cfg and expect its energy to balance exactly: the final
 * stored energy is the initial one plus the harvest, minus what
 * spilled over the top and what the ledger recorded, plus what the
 * ledger recorded that the capacitor could not fund.
 */
void
expectExactBalance(const SimConfig &cfg, const std::string &what)
{
    Simulator sim(cfg);
    const SimResult r = sim.run();
    const EnergyMeter &meter = sim.energyMeter();
    const ZeptoJoules initial = meter.capacitor().restoreLevel();
    EXPECT_EQ(r.spilledZj, meter.spilled()) << what;
    EXPECT_EQ(r.unfundedZj, meter.unfunded()) << what;
    EXPECT_EQ(initial + meter.harvested() - r.spilledZj -
                  r.ledger.grandTotalZj() + r.unfundedZj,
              meter.stored())
        << what;
}

TEST_F(QuietTests, EnergyBalancesExactlyInZeptojoules)
{
    for (const std::string &app : suiteApps()) {
        expectExactBalance(baselineConfig(app), app + " baseline");
        expectExactBalance(accConfig(app), app + " ACC");
        expectExactBalance(accKaguraConfig(app), app + " ACC+Kagura");
    }
    for (const EnumName<EhsKind> &design : ehsKindNames) {
        SimConfig cfg = accKaguraConfig("crc32");
        cfg.ehs = design.value;
        expectExactBalance(cfg, std::string("crc32 ") + design.name);
    }
    SimConfig hier = accKaguraConfig("jpeg");
    std::string error;
    ASSERT_TRUE(applyL2Spec("1024x4:acc+kagura", hier, error)) << error;
    hier.enablePrefetch = true;
    expectExactBalance(hier, "jpeg L2 + prefetch");

    // At infinite energy the capacitor funds nothing: every draw is
    // unfunded, and the balance still holds.
    SimConfig infinite = accConfig("crc32");
    infinite.infiniteEnergy = true;
    Simulator sim(infinite);
    const SimResult r = sim.run();
    EXPECT_EQ(r.unfundedZj, r.ledger.grandTotalZj());
    expectExactBalance(infinite, "crc32 infinite energy");
}

TEST_F(QuietTests, BaselineHasNoCompressionEnergy)
{
    Simulator sim(smallConfig());
    const SimResult r = sim.run();
    EXPECT_DOUBLE_EQ(r.ledger.total(EnergyCategory::Compress), 0.0);
    EXPECT_DOUBLE_EQ(r.ledger.total(EnergyCategory::Decompress), 0.0);
}

TEST_F(QuietTests, KaguraSwitchesModes)
{
    Simulator sim(accKaguraConfig("g721d"));
    const SimResult r = sim.run();
    EXPECT_GT(r.kagura.modeSwitches, 0u);
    EXPECT_GT(r.kagura.memOpsInRm, 0u);
}

TEST_F(QuietTests, KaguraReducesCompressionsOnWastefulApps)
{
    // jpegd is one of the apps the paper names as losing with plain
    // ACC; Kagura must avert part of its compression work (Fig. 18).
    Simulator acc_sim(accConfig("jpegd"));
    Simulator kagura_sim(accKaguraConfig("jpegd"));
    const SimResult acc = acc_sim.run();
    const SimResult kagura = kagura_sim.run();
    EXPECT_LT(kagura.compressions(), acc.compressions());
    EXPECT_LT(kagura.ledger.total(EnergyCategory::Compress),
              acc.ledger.total(EnergyCategory::Compress));
}

TEST_F(QuietTests, KaguraRequiresAGovernor)
{
    SimConfig cfg = smallConfig();
    cfg.enableKagura = true; // governor still None
    EXPECT_EXIT({ Simulator sim(cfg); },
                testing::ExitedWithCode(1), "requires a compression");
}

TEST_F(QuietTests, VoltageTriggerRuns)
{
    SimConfig cfg = accKaguraConfig("crc32");
    cfg.kagura.trigger = TriggerKind::Voltage;
    Simulator sim(cfg);
    const SimResult r = sim.run();
    EXPECT_GT(r.kagura.modeSwitches, 0u);
}

TEST_F(QuietTests, AllEhsDesignsComplete)
{
    for (EhsKind kind :
         {EhsKind::NvsramCache, EhsKind::NvMR, EhsKind::SweepCache,
          EhsKind::TaskBased, EhsKind::SpecPersist}) {
        SimConfig cfg = smallConfig();
        cfg.ehs = kind;
        Simulator sim(cfg);
        const SimResult r = sim.run();
        EXPECT_GE(r.committedInstructions,
                  cachedWorkload("crc32").committedInstructions())
            << ehsKindName(kind);
        EXPECT_GT(r.powerFailures, 0u) << ehsKindName(kind);
    }
}

TEST_F(QuietTests, RollbackDesignsReExecuteAfterFailures)
{
    for (EhsKind kind : {EhsKind::SweepCache, EhsKind::TaskBased,
                         EhsKind::SpecPersist}) {
        SimConfig cfg = smallConfig();
        cfg.ehs = kind;
        Simulator sim(cfg);
        const SimResult r = sim.run();
        // Rollback re-execution commits more instructions than the
        // trace holds.
        EXPECT_GT(r.committedInstructions,
                  cachedWorkload("crc32").committedInstructions())
            << ehsKindName(kind);
    }
}

TEST_F(QuietTests, DecayAndPrefetchRun)
{
    SimConfig cfg = smallConfig();
    cfg.enableDecay = true;
    Simulator a(cfg);
    EXPECT_GT(a.run().committedInstructions, 0u);

    SimConfig cfg2 = smallConfig();
    cfg2.enablePrefetch = true;
    Simulator b(cfg2);
    const SimResult r = b.run();
    EXPECT_GT(r.dcache.prefetchFills, 0u);
}

TEST_F(QuietTests, OracleRecordThenReplay)
{
    SimConfig base = accConfig("jpegd");
    const SimResult ideal = runIdealOnce(base, true);
    EXPECT_GT(ideal.oracleVetoes, 0u);

    // The intermittence-aware ideal spends no more compression energy
    // than plain ACC.
    Simulator plain(base);
    const SimResult acc = plain.run();
    EXPECT_LE(ideal.ledger.total(EnergyCategory::Compress),
              acc.ledger.total(EnergyCategory::Compress));
}

TEST_F(QuietTests, ReplayWithoutLogIsFatal)
{
    SimConfig cfg = accConfig("crc32");
    cfg.oracle = OracleMode::Replay;
    EXPECT_EXIT({ Simulator sim(cfg); },
                testing::ExitedWithCode(1), "phase-1 log");
}

TEST_F(QuietTests, NvmTypesAndSizesRun)
{
    for (NvmType type : {NvmType::ReRam, NvmType::Pcm, NvmType::SttRam}) {
        SimConfig cfg = smallConfig();
        cfg.nvmType = type;
        Simulator sim(cfg);
        EXPECT_GT(sim.run().wallCycles, 0u) << nvmTypeName(type);
    }
}

TEST_F(QuietTests, DescribeNamesTheStack)
{
    SimConfig cfg = accKaguraConfig("crc32");
    const std::string desc = cfg.describe();
    EXPECT_NE(desc.find("crc32"), std::string::npos);
    EXPECT_NE(desc.find("BDI"), std::string::npos);
    EXPECT_NE(desc.find("Kagura"), std::string::npos);
}

// --- experiment helpers ----------------------------------------------------

TEST_F(QuietTests, SpeedupMathIsSymmetric)
{
    SimResult fast, slow;
    fast.wallCycles = 100;
    slow.wallCycles = 110;
    EXPECT_NEAR(speedupPct(fast, slow), 10.0, 1e-9);
    EXPECT_NEAR(speedupPct(slow, fast), -9.0909, 1e-3);
}

TEST_F(QuietTests, SuiteRunnerCollectsPerSeedRuns)
{
    const std::vector<std::string> apps = {"crc32"};
    const SuiteResult suite = runSuite("t", baselineConfig, apps);
    ASSERT_EQ(suite.apps.size(), 1u);
    EXPECT_EQ(suite.apps[0].runs.size(), suiteRepeats);
    EXPECT_EQ(&suite.forApp("crc32"), &suite.apps[0]);
}

TEST_F(QuietTests, SuiteMissingAppIsFatal)
{
    const std::vector<std::string> apps = {"crc32"};
    const SuiteResult suite = runSuite("t", baselineConfig, apps);
    EXPECT_EXIT({ suite.forApp("sha"); }, testing::ExitedWithCode(1),
                "no result");
}

TEST_F(QuietTests, PairedSpeedupAveragesSeeds)
{
    const std::vector<std::string> apps = {"crc32"};
    const SuiteResult a = runSuite("a", baselineConfig, apps);
    const SuiteResult b = runSuite("b", baselineConfig, apps);
    // Identical configurations: zero speedup, exactly.
    EXPECT_NEAR(speedupPct(a.forApp("crc32"), b.forApp("crc32")), 0.0,
                1e-12);
    EXPECT_NEAR(meanSpeedupPct(a, b), 0.0, 1e-12);
    EXPECT_NEAR(meanEnergyDeltaPct(a, b), 0.0, 1e-12);
}

/** Sink that appends every record to a caller-owned vector. */
struct CaptureSink : metrics::Sink
{
    explicit CaptureSink(std::vector<metrics::Record> &out) : out(out) {}
    void write(const metrics::Record &record) override
    {
        out.push_back(record);
    }
    std::vector<metrics::Record> &out;
};

/**
 * The per-cycle series records one runner::runJob(@p config) exports,
 * with the series armed or not and the result cache off.
 */
std::vector<metrics::Record>
seriesOf(const SimConfig &config, bool armed, SimResult &result)
{
    runner::CacheStore &cache = runner::CacheStore::global();
    const bool was_enabled = cache.enabled();
    cache.setEnabled(false);
    std::vector<metrics::Record> records;
    metrics::setDefaultSink(std::make_unique<CaptureSink>(records));
    metrics::setTimeseriesEnabled(armed);
    runner::SimJob job;
    job.config = config;
    result = runner::runJob(job);
    metrics::setTimeseriesEnabled(false);
    metrics::setDefaultSink(nullptr);
    cache.setEnabled(was_enabled);
    std::erase_if(records, [](const metrics::Record &rec) {
        return rec.name.rfind("sim/cycle/", 0) != 0;
    });
    return records;
}

TEST_F(QuietTests, TimeseriesEmitsOneRecordPerCycleAndSeries)
{
    SimResult r;
    const std::vector<metrics::Record> records =
        seriesOf(smallConfig(), true, r);

    ASSERT_GT(r.cycles.size(), 0u);
    std::map<std::string, std::size_t> counts;
    std::uint64_t instr_sum = 0;
    std::set<std::string> indexes;
    for (const metrics::Record &rec : records) {
        ++counts[rec.name];
        EXPECT_EQ(rec.kind, metrics::RecordKind::Gauge);
        ASSERT_TRUE(rec.labels.count("cycle_index"));
        EXPECT_EQ(rec.labels.at("workload"), "crc32");
        EXPECT_EQ(rec.labels.at("config"), smallConfig().describe());
        if (rec.name == "sim/cycle/instructions") {
            instr_sum += static_cast<std::uint64_t>(rec.value);
            indexes.insert(rec.labels.at("cycle_index"));
        }
    }
    // One record per completed power cycle for each of the four
    // series, each cycle_index distinct, and the per-cycle
    // instruction counts resum to the whole run.
    for (const char *name :
         {"sim/cycle/instructions", "sim/cycle/loads",
          "sim/cycle/stores", "sim/cycle/active_cycles"})
        EXPECT_EQ(counts[name], r.cycles.size()) << name;
    EXPECT_EQ(indexes.size(), r.cycles.size());
    EXPECT_EQ(instr_sum, r.committedInstructions);
}

TEST_F(QuietTests, TimeseriesIsOffByDefault)
{
    SimResult r;
    EXPECT_TRUE(seriesOf(smallConfig(), false, r).empty());
    EXPECT_GT(r.cycles.size(), 0u);
}

} // namespace
} // namespace kagura
