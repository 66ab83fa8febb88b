/**
 * @file
 * Unit tests for the energy subsystem: capacitor physics, thresholds,
 * power traces, the ledger, and the NVM parameter tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "energy/capacitor.hh"
#include "energy/energy_model.hh"
#include "energy/ledger.hh"
#include "energy/meter.hh"
#include "energy/power_trace.hh"

namespace kagura
{
namespace
{

TEST(Capacitor, StartsAtRestoreThreshold)
{
    CapacitorConfig cfg;
    Capacitor cap(cfg);
    EXPECT_NEAR(cap.voltage(), cfg.vRestore, 1e-9);
    EXPECT_TRUE(cap.aboveRestore());
    EXPECT_FALSE(cap.belowCheckpoint());
}

TEST(Capacitor, EnergyVoltageRelation)
{
    CapacitorConfig cfg;
    cfg.capacitance = 4.7e-6;
    Capacitor cap(cfg);
    cap.setVoltage(3.0);
    EXPECT_NEAR(zeptoToJoules(cap.stored()), 0.5 * 4.7e-6 * 9.0, 1e-18);
    EXPECT_NEAR(cap.voltage(), 3.0, 1e-12);
}

/** A meter over @p cfg fed a constant @p watts, with no standing power. */
std::unique_ptr<EnergyMeter>
constantMeter(const CapacitorConfig &cfg, const EnergyModel &energy,
              EnergyLedger &ledger, Watts watts)
{
    return std::make_unique<EnergyMeter>(
        cfg, energy, 0.0, 0.0,
        std::make_unique<VectorTrace>("const", std::vector<Watts>{watts}),
        ledger, false);
}

TEST(Capacitor, ChargeClampsAtVMax)
{
    // 100 W for one 10 us interval is a millijoule, far over capacity:
    // the capacitor fills to its ceiling and the rest spills, counted.
    CapacitorConfig cfg;
    EnergyModel energy;
    EnergyLedger ledger;
    const auto meter = constantMeter(cfg, energy, ledger, 100.0);
    const ZeptoJoules before = meter->stored();
    meter->advanceWall(energy.cyclesPerTraceInterval());
    const ZeptoJoules ceiling = meter->capacitor().ceiling();
    EXPECT_EQ(meter->stored(), ceiling);
    EXPECT_NEAR(meter->capacitor().voltage(), cfg.vMax, 1e-9);
    EXPECT_EQ(meter->harvested(), joulesToZepto(100.0 * 10e-6));
    EXPECT_EQ(meter->spilled(), meter->harvested() - (ceiling - before));
}

TEST(Capacitor, DischargeSaturatesAtZero)
{
    // A draw of twice the stored energy empties the capacitor; the
    // half it could not fund is counted, not lost.
    CapacitorConfig cfg;
    EnergyModel energy;
    EnergyLedger ledger;
    const auto meter = constantMeter(cfg, energy, ledger, 0.0);
    const ZeptoJoules before = meter->stored();
    meter->spendZj(EnergyCategory::Others, 2 * before);
    EXPECT_EQ(meter->stored(), 0);
    EXPECT_EQ(meter->unfunded(), before);
    EXPECT_EQ(ledger.totalZj(EnergyCategory::Others), 2 * before);
    EXPECT_TRUE(meter->capacitor().belowShutdown());
}

TEST(EnergyMeter, RunsUpToTheCounterLimit)
{
    CapacitorConfig cfg;
    EnergyModel energy;
    EnergyLedger ledger;
    const auto meter = constantMeter(cfg, energy, ledger, 0.0);
    meter->spendZj(EnergyCategory::Others,
                   EnergyMeter::counterLimitZj - 1);
    meter->advanceWall(energy.cyclesPerTraceInterval());
    EXPECT_EQ(ledger.grandTotalZj(), EnergyMeter::counterLimitZj - 1);
}

TEST(EnergyMeter, StopsARunWhoseLedgerPassesTheCounterLimit)
{
    CapacitorConfig cfg;
    EnergyModel energy;
    EnergyLedger ledger;
    const auto meter = constantMeter(cfg, energy, ledger, 0.0);
    // Two buckets that pass the limit only together.
    meter->spendZj(EnergyCategory::Others, EnergyMeter::counterLimitZj / 2);
    meter->spendZj(EnergyCategory::Memory, EnergyMeter::counterLimitZj / 2);
    EXPECT_EXIT(meter->advanceWall(energy.cyclesPerTraceInterval()),
                testing::ExitedWithCode(1), "range of the integer ledger");
}

TEST(EnergyMeter, StopsARunWhoseHarvestPassesTheCounterLimit)
{
    // 300 W over a 10 us interval is 3e18 zJ: the first interval stays
    // under 2^62 zJ (4.6e18), the second passes it.
    CapacitorConfig cfg;
    EnergyModel energy;
    EnergyLedger ledger;
    const auto meter = constantMeter(cfg, energy, ledger, 300.0);
    meter->advanceWall(energy.cyclesPerTraceInterval());
    EXPECT_LT(meter->harvested(), EnergyMeter::counterLimitZj);
    EXPECT_EXIT(meter->advanceWall(energy.cyclesPerTraceInterval()),
                testing::ExitedWithCode(1), "harvested");
}

TEST(EnergyMeter, StopsAnInfiniteEnergyRunPastTheCounterLimit)
{
    // Every draw of an infinite-energy run is unfunded.
    CapacitorConfig cfg;
    EnergyModel energy;
    EnergyLedger ledger;
    EnergyMeter meter(
        cfg, energy, 0.0, 0.0,
        std::make_unique<VectorTrace>("none", std::vector<Watts>{0.0}),
        ledger, true);
    meter.spendZj(EnergyCategory::Others, EnergyMeter::counterLimitZj);
    EXPECT_EQ(meter.unfunded(), EnergyMeter::counterLimitZj);
    EXPECT_EXIT(meter.advanceWall(energy.cyclesPerTraceInterval()),
                testing::ExitedWithCode(1), "unfunded");
}

TEST(Capacitor, ThresholdCrossing)
{
    CapacitorConfig cfg;
    Capacitor cap(cfg);
    // Drain one zeptojoule past the checkpoint threshold.
    cap.setStored(cap.stored() -
                  cap.bandEnergy(cfg.vRestore, cfg.vCheckpoint) - 1);
    EXPECT_TRUE(cap.belowCheckpoint());
    EXPECT_FALSE(cap.belowShutdown());
}

TEST(Capacitor, BandEnergyMatchesDifference)
{
    CapacitorConfig cfg;
    Capacitor cap(cfg);
    const ZeptoJoules band = cap.bandEnergy(3.0, 2.0);
    EXPECT_EQ(band, cap.energyAt(3.0) - cap.energyAt(2.0));
    EXPECT_NEAR(zeptoToJoules(band), 0.5 * cfg.capacitance * (9.0 - 4.0),
                1e-18);
}

TEST(Capacitor, LeakageGrowsWithCapacitance)
{
    CapacitorConfig small;
    small.capacitance = 4.7e-6;
    CapacitorConfig large = small;
    large.capacitance = 1000e-6;
    Capacitor a(small), b(large);
    EXPECT_GT(b.leakagePower(), a.leakagePower() * 100);
}

TEST(Capacitor, RejectsBadThresholds)
{
    CapacitorConfig cfg;
    cfg.vCheckpoint = cfg.vRestore + 1.0;
    EXPECT_EXIT({ Capacitor cap(cfg); (void)cap; },
                testing::ExitedWithCode(1), "thresholds");
}

/**
 * Capacitors whose thresholds must compare exactly: Table I, every
 * size Fig. 29 sweeps, and non-default threshold sets (a wide band,
 * vRestore at vMax over a zero floor, and a band one ulp wide on a
 * millifarad buffer).
 */
std::vector<CapacitorConfig>
thresholdCases()
{
    std::vector<CapacitorConfig> out{CapacitorConfig{}};
    for (const double uf : {1.0, 2.2, 4.7, 10.0, 47.0, 100.0, 470.0}) {
        CapacitorConfig cfg;
        cfg.capacitance = uf * 1e-6;
        out.push_back(cfg);
    }
    out.push_back({4.7e-6, 3.3, 3.0, 2.0, 1.8, 4e-3});
    out.push_back({10e-6, 5.0, 5.0, 0.7, 0.0, 4e-3});
    out.push_back({1e-3, 1.2, 1.1, std::nextafter(1.1, 0.0), 0.9, 4e-3});
    return out;
}

/** The voltage rule the thresholds stand for, sqrt(2 E / C). */
double
voltageOf(const CapacitorConfig &cfg, ZeptoJoules zj)
{
    return std::sqrt(2.0 * zeptoToJoules(zj) / cfg.capacitance);
}

TEST(Capacitor, ThresholdsFlipAtTheirCutPoints)
{
    for (const CapacitorConfig &cfg : thresholdCases()) {
        Capacitor cap(cfg);
        const ZeptoJoules restore = cap.restoreLevel();
        const ZeptoJoules checkpoint = cap.energyAt(cfg.vCheckpoint);
        EXPECT_EQ(restore, cap.energyAt(cfg.vRestore));
        EXPECT_EQ(cap.stored(), restore) << "starts at V_rst";

        cap.setStored(restore);
        EXPECT_TRUE(cap.aboveRestore()) << cfg.capacitance;
        cap.setStored(restore - 1);
        EXPECT_FALSE(cap.aboveRestore()) << cfg.capacitance;
        cap.setStored(checkpoint);
        EXPECT_FALSE(cap.belowCheckpoint()) << cfg.capacitance;
        cap.setStored(checkpoint - 1);
        EXPECT_TRUE(cap.belowCheckpoint()) << cfg.capacitance;

        // The cut points stand for the voltages: C v^2 / 2 rounded to
        // the nearest zeptojoule.
        EXPECT_NEAR(voltageOf(cfg, restore), cfg.vRestore, 1e-9);
        EXPECT_NEAR(voltageOf(cfg, checkpoint), cfg.vCheckpoint, 1e-9);
    }
}

TEST(Capacitor, RejectsAFullChargePastTheZeptojouleRange)
{
    CapacitorConfig cfg;
    cfg.capacitance = 2e-3; // 10.9 mJ at 3.3 V
    EXPECT_EXIT({ Capacitor cap(cfg); (void)cap; },
                testing::ExitedWithCode(1), "zeptojoules");
}

TEST(PowerTrace, DeterministicForSameSeed)
{
    auto a = makeTrace(TraceKind::RfHome, 1000, 1234);
    auto b = makeTrace(TraceKind::RfHome, 1000, 1234);
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_DOUBLE_EQ(a->power(i), b->power(i));
}

TEST(PowerTrace, WrapsCyclically)
{
    auto t = makeTrace(TraceKind::Solar, 100, 1);
    EXPECT_DOUBLE_EQ(t->power(0), t->power(100));
    EXPECT_DOUBLE_EQ(t->power(7), t->power(707));
}

TEST(PowerTrace, AllSamplesNonNegative)
{
    for (TraceKind kind : {TraceKind::RfHome, TraceKind::Solar,
                           TraceKind::Thermal, TraceKind::Constant}) {
        auto t = makeTrace(kind, 5000, 99);
        for (std::uint64_t i = 0; i < t->length(); ++i)
            ASSERT_GE(t->power(i), 0.0) << traceKindName(kind);
    }
}

TEST(PowerTrace, StabilityOrderingMatchesFig11)
{
    // Fig. 11 / Section VIII-H14: solar and thermal have higher stable
    // portions than the bursty RFHome trace.
    auto rf = makeTrace(TraceKind::RfHome, 50000, 7);
    auto solar = makeTrace(TraceKind::Solar, 50000, 7);
    auto thermal = makeTrace(TraceKind::Thermal, 50000, 7);
    EXPECT_GT(solar->stableFraction(), rf->stableFraction());
    EXPECT_GT(thermal->stableFraction(), rf->stableFraction());
    EXPECT_GT(thermal->stableFraction(), 0.9);
}

TEST(PowerTrace, MeanPowerInHarvestingRegime)
{
    // All sources should land in the tens-to-hundreds of uW band
    // typical for ambient harvesters.
    for (TraceKind kind :
         {TraceKind::RfHome, TraceKind::Solar, TraceKind::Thermal}) {
        auto t = makeTrace(kind, 50000, 3);
        EXPECT_GT(t->meanPower(), 20e-6) << traceKindName(kind);
        EXPECT_LT(t->meanPower(), 2e-3) << traceKindName(kind);
    }
}

TEST(PowerTrace, ScaleMultipliesSamples)
{
    auto base = makeTrace(TraceKind::Thermal, 1000, 5, 1.0);
    auto doubled = makeTrace(TraceKind::Thermal, 1000, 5, 2.0);
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_NEAR(doubled->power(i), 2.0 * base->power(i), 1e-15);
}

TEST(PowerTrace, SharedTraceMatchesAFreshOneAcrossEviction)
{
    constexpr Seconds interval = 10e-6;
    const auto expect_fresh = [](const HarvestTable &shared) {
        const auto fresh = makeTrace(TraceKind::RfHome, 3000, 77, 1.5);
        ASSERT_EQ(shared.length(), fresh->length());
        EXPECT_EQ(shared.name(), fresh->name());
        for (std::uint64_t i = 0; i < fresh->length(); ++i)
            ASSERT_EQ(shared.at(i),
                      joulesToZepto(fresh->power(i) * interval))
                << "sample " << i;
    };

    const auto first =
        sharedHarvest(TraceKind::RfHome, 3000, 77, 1.5, interval);
    expect_fresh(*first);
    EXPECT_EQ(sharedHarvest(TraceKind::RfHome, 3000, 77, 1.5, interval),
              first)
        << "a repeated request must hit the memo";

    // Every slot taken by another key evicts the first table; asking
    // again regenerates it, sample for sample.
    for (std::uint64_t seed = 0; seed < sharedTraceSlots; ++seed)
        sharedHarvest(TraceKind::Solar, 500, seed, 1.0, interval);
    const auto again =
        sharedHarvest(TraceKind::RfHome, 3000, 77, 1.5, interval);
    EXPECT_NE(again, first) << "the memo kept more than its slots";
    expect_fresh(*again);
    expect_fresh(*first); // the evicted copy is still intact

    // Keys differ in every field, including the scale's sign bit.
    EXPECT_NE(sharedHarvest(TraceKind::Constant, 10, 1, 0.0, interval),
              sharedHarvest(TraceKind::Constant, 10, 1, -0.0, interval));
    EXPECT_NE(sharedHarvest(TraceKind::RfHome, 3000, 78, 1.5, interval),
              again);
    EXPECT_NE(sharedHarvest(TraceKind::RfHome, 3001, 77, 1.5, interval),
              again);
    EXPECT_NE(sharedHarvest(TraceKind::RfHome, 3000, 77, 1.5, 2 * interval),
              again);
}

TEST(PowerTrace, VectorTraceRejectsEmpty)
{
    EXPECT_EXIT(
        { VectorTrace t("x", {}); },
        testing::ExitedWithCode(1), "no samples");
}

TEST(Ledger, AccumulatesPerCategory)
{
    EnergyLedger ledger;
    ledger.add(EnergyCategory::Compress, picoToZepto(3.84));
    ledger.add(EnergyCategory::Compress, picoToZepto(5.0));
    ledger.add(EnergyCategory::Memory, picoToZepto(100.0));
    EXPECT_EQ(ledger.totalZj(EnergyCategory::Compress), 8'840'000'000);
    EXPECT_EQ(ledger.totalZj(EnergyCategory::Memory), 100'000'000'000);
    EXPECT_EQ(ledger.totalZj(EnergyCategory::Others), 0);
    EXPECT_EQ(ledger.grandTotalZj(), 108'840'000'000);
    // Reports read picojoules.
    EXPECT_DOUBLE_EQ(ledger.total(EnergyCategory::Compress), 8.84);
    EXPECT_DOUBLE_EQ(ledger.grandTotal(), 108.84);
}

TEST(Ledger, ResetZeroesEverything)
{
    EnergyLedger ledger;
    ledger.add(EnergyCategory::Checkpoint, 42);
    ledger.reset();
    EXPECT_EQ(ledger.grandTotalZj(), 0);
}

TEST(Ledger, CategoryNamesMatchFig16Legend)
{
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Compress),
                 "Compress");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Decompress),
                 "Decompress");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::CacheOther),
                 "Cache(other)");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Memory), "Memory");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Checkpoint),
                 "Ckpt/Restore");
    EXPECT_STREQ(energyCategoryName(EnergyCategory::Others), "Others");
}

TEST(EnergyModel, CacheAccessEnergyMatchesTableIAt256B)
{
    EnergyModel model;
    EXPECT_NEAR(model.cacheAccessEnergy(256), 9.0, 1e-9);
}

TEST(EnergyModel, CacheAccessEnergyGrowsWithSize)
{
    EnergyModel model;
    EXPECT_LT(model.cacheAccessEnergy(128), model.cacheAccessEnergy(256));
    EXPECT_LT(model.cacheAccessEnergy(256),
              model.cacheAccessEnergy(1024));
    EXPECT_LT(model.cacheAccessEnergy(1024),
              model.cacheAccessEnergy(4096));
}

TEST(EnergyModel, TraceIntervalIs10Microseconds)
{
    EnergyModel model;
    EXPECT_DOUBLE_EQ(model.traceInterval, 10e-6);
    EXPECT_EQ(model.cyclesPerTraceInterval(), 2000u);
}

TEST(NvmParams, WritesCostMoreThanReads)
{
    for (NvmType t : {NvmType::ReRam, NvmType::Pcm, NvmType::SttRam}) {
        const NvmParams p = nvmParams(t, 16ULL << 20);
        EXPECT_GT(p.writeEnergy, p.readEnergy) << nvmTypeName(t);
        EXPECT_GT(p.writeLatency, p.readLatency) << nvmTypeName(t);
    }
}

TEST(NvmParams, EnergyGrowsWithCapacity)
{
    const NvmParams small = nvmParams(NvmType::ReRam, 2ULL << 20);
    const NvmParams large = nvmParams(NvmType::ReRam, 32ULL << 20);
    EXPECT_GT(large.readEnergy, small.readEnergy);
    EXPECT_GT(large.standbyPower, small.standbyPower);
}

TEST(NvmParams, PcmWritesAreTheMostExpensive)
{
    const auto reram = nvmParams(NvmType::ReRam, 16ULL << 20);
    const auto pcm = nvmParams(NvmType::Pcm, 16ULL << 20);
    const auto stt = nvmParams(NvmType::SttRam, 16ULL << 20);
    EXPECT_GT(pcm.writeEnergy, reram.writeEnergy);
    EXPECT_GT(pcm.writeEnergy, stt.writeEnergy);
}

} // namespace
} // namespace kagura
