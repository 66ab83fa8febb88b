/**
 * @file
 * Cross-configuration integration sweeps: every compressor, EHS
 * design, cache geometry, NVM type, and capacitor size the bench
 * harness exercises must complete and preserve functional state.
 * These are the smoke tests behind the paper's sensitivity figures.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/logging.hh"
#include "sim/experiment.hh"

namespace kagura
{
namespace
{

struct SweepTests : testing::Test
{
    SweepTests() { informEnabled = false; }
};

/** Run @p cfg and assert the final NVM image matches the kernel. */
void
runAndVerify(SimConfig cfg)
{
    Simulator sim(cfg);
    const SimResult r = sim.run();
    ASSERT_GE(r.committedInstructions,
              cachedWorkload(cfg.workload).committedInstructions())
        << cfg.describe();

    const Workload &wl = cachedWorkload(cfg.workload);
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
    std::size_t mismatches = 0;
    for (const auto &[addr, byte] : expected) {
        std::uint8_t actual;
        sim.nvm().readBytes(addr, &actual, 1);
        if (actual != byte)
            ++mismatches;
    }
    ASSERT_EQ(mismatches, 0u) << cfg.describe();
}

class CompressorSweep : public testing::TestWithParam<CompressorKind>
{
};

TEST_P(CompressorSweep, KaguraStackPreservesState)
{
    SimConfig cfg = accKaguraConfig("adpcm_c");
    cfg.compressor = GetParam();
    runAndVerify(cfg);
}

INSTANTIATE_TEST_SUITE_P(Fig23, CompressorSweep,
                         testing::Values(CompressorKind::Bdi,
                                         CompressorKind::Fpc,
                                         CompressorKind::CPack,
                                         CompressorKind::Dzc),
                         [](const auto &info) {
                             std::string n =
                                 compressorKindName(info.param);
                             for (char &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

class GeometrySweep
    : public testing::TestWithParam<std::tuple<unsigned, unsigned,
                                               unsigned>>
{
};

TEST_P(GeometrySweep, KaguraStackPreservesState)
{
    SimConfig cfg = accKaguraConfig("typeset");
    std::tie(cfg.dcache.sizeBytes, cfg.dcache.ways,
             cfg.dcache.blockSize) = GetParam();
    cfg.icache = cfg.dcache;
    runAndVerify(cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Figs24to26, GeometrySweep,
    testing::Values(std::tuple{128u, 2u, 32u}, std::tuple{512u, 2u, 32u},
                    std::tuple{4096u, 2u, 32u}, std::tuple{256u, 1u, 32u},
                    std::tuple{256u, 8u, 32u}, std::tuple{256u, 2u, 16u},
                    std::tuple{512u, 2u, 64u}),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "B_" +
               std::to_string(std::get<1>(info.param)) + "w_" +
               std::to_string(std::get<2>(info.param)) + "b";
    });

TEST_F(SweepTests, EhsDesignsPreserveStateUnderCompression)
{
    for (EhsKind kind : {EhsKind::NvsramCache, EhsKind::NvMR}) {
        SimConfig cfg = accKaguraConfig("qsort");
        cfg.ehs = kind;
        runAndVerify(cfg);
    }
    // SweepCache's rollback re-execution converges to the same final
    // image too (the trace is deterministic and the sweep persists
    // everything at each boundary).
    SimConfig cfg = accKaguraConfig("qsort");
    cfg.ehs = EhsKind::SweepCache;
    runAndVerify(cfg);
}

TEST_F(SweepTests, CapacitorSizesChangeFailureCounts)
{
    std::uint64_t previous_failures = ~0ULL;
    for (double uf : {1.0, 4.7, 47.0}) {
        SimConfig cfg = baselineConfig("crc32");
        cfg.capacitor.capacitance = uf * 1e-6;
        Simulator sim(cfg);
        const SimResult r = sim.run();
        EXPECT_LT(r.powerFailures, previous_failures) << uf;
        previous_failures = r.powerFailures;
    }
}

TEST_F(SweepTests, NvmTypesChangeMissCosts)
{
    // PCM's expensive writes must show up as more Memory energy than
    // STT-RAM's on a write-back workload.
    SimConfig pcm = baselineConfig("qsort");
    pcm.nvmType = NvmType::Pcm;
    SimConfig stt = pcm;
    stt.nvmType = NvmType::SttRam;
    Simulator pcm_sim(pcm), stt_sim(stt);
    const SimResult rp = pcm_sim.run();
    const SimResult rs = stt_sim.run();
    EXPECT_GT(rp.ledger.total(EnergyCategory::Memory),
              rs.ledger.total(EnergyCategory::Memory));
}

TEST_F(SweepTests, TracesChangeWallTimeNotWork)
{
    SimConfig rf = baselineConfig("crc32");
    SimConfig solar = rf;
    solar.trace = TraceKind::Solar;
    Simulator rf_sim(rf), solar_sim(solar);
    const SimResult a = rf_sim.run();
    const SimResult b = solar_sim.run();
    EXPECT_EQ(a.committedInstructions, b.committedInstructions);
    EXPECT_NE(a.wallCycles, b.wallCycles);
}

TEST_F(SweepTests, VoltageTriggerOnMonitorlessDesignCostsEnergy)
{
    // Section VIII-H2: the voltage trigger forces an extended monitor
    // onto NvMR, which otherwise avoids one.
    SimConfig mem_trig = accKaguraConfig("crc32");
    mem_trig.ehs = EhsKind::NvMR;
    SimConfig vol_trig = mem_trig;
    vol_trig.kagura.trigger = TriggerKind::Voltage;
    Simulator mem_sim(mem_trig), vol_sim(vol_trig);
    const SimResult rm = mem_sim.run();
    const SimResult rv = vol_sim.run();
    EXPECT_GT(rv.ledger.total(EnergyCategory::Others),
              rm.ledger.total(EnergyCategory::Others));
}

} // namespace
} // namespace kagura
