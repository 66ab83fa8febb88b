/**
 * @file
 * Unit tests for the energy subsystem: capacitor physics, thresholds,
 * power traces, the ledger, and the NVM parameter tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "energy/capacitor.hh"
#include "energy/energy_model.hh"
#include "energy/ledger.hh"
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
    EXPECT_NEAR(cap.storedJoules(), 0.5 * 4.7e-6 * 9.0, 1e-12);
    EXPECT_NEAR(cap.voltage(), 3.0, 1e-12);
}

TEST(Capacitor, ChargeClampsAtVMax)
{
    CapacitorConfig cfg;
    Capacitor cap(cfg);
    cap.charge(1.0); // a full joule: way over capacity
    EXPECT_NEAR(cap.voltage(), cfg.vMax, 1e-9);
}

TEST(Capacitor, DischargeSaturatesAtZero)
{
    CapacitorConfig cfg;
    Capacitor cap(cfg);
    cap.discharge(1.0);
    EXPECT_DOUBLE_EQ(cap.storedJoules(), 0.0);
    EXPECT_TRUE(cap.belowShutdown());
}

TEST(Capacitor, ThresholdCrossing)
{
    CapacitorConfig cfg;
    Capacitor cap(cfg);
    // Drain exactly past the checkpoint threshold.
    const double drain =
        cap.bandEnergy(cfg.vRestore, cfg.vCheckpoint) + 1e-12;
    cap.discharge(drain);
    EXPECT_TRUE(cap.belowCheckpoint());
    EXPECT_FALSE(cap.belowShutdown());
}

TEST(Capacitor, BandEnergyMatchesDifference)
{
    CapacitorConfig cfg;
    Capacitor cap(cfg);
    const double band = cap.bandEnergy(3.0, 2.0);
    EXPECT_NEAR(band, 0.5 * cfg.capacitance * (9.0 - 4.0), 1e-15);
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
voltageOf(const CapacitorConfig &cfg, double joules)
{
    return std::sqrt(2.0 * joules / cfg.capacitance);
}

TEST(Capacitor, ThresholdComparesMatchTheSquareRootRule)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::uint64_t seed = 0xca9ac1;
    for (const CapacitorConfig &cfg : thresholdCases()) {
        Capacitor cap(cfg);
        const double ceiling =
            0.5 * cfg.capacitance * cfg.vMax * cfg.vMax;
        const auto check = [&](double joules) {
            if (joules > ceiling) // charge() cannot reach it
                return;
            cap.discharge(cap.storedJoules());
            cap.charge(joules);
            ASSERT_EQ(cap.storedJoules(), joules);
            const double volts = voltageOf(cfg, joules);
            ASSERT_EQ(cap.belowCheckpoint(), volts < cfg.vCheckpoint)
                << cfg.capacitance << " F at " << joules << " J";
            ASSERT_EQ(cap.aboveRestore(), volts >= cfg.vRestore)
                << cfg.capacitance << " F at " << joules << " J";
        };

        for (const double cut :
             {cap.checkpointJoules(), cap.restoreJoules()}) {
            check(cut);
            check(std::nextafter(cut, 0.0));
            check(std::nextafter(cut, inf));
        }
        // The cut points are where the rule flips, not merely points
        // that agree with it.
        EXPECT_GE(voltageOf(cfg, cap.checkpointJoules()), cfg.vCheckpoint);
        EXPECT_LT(voltageOf(cfg, std::nextafter(cap.checkpointJoules(),
                                                0.0)),
                  cfg.vCheckpoint);
        EXPECT_GE(voltageOf(cfg, cap.restoreJoules()), cfg.vRestore);
        EXPECT_LT(voltageOf(cfg, std::nextafter(cap.restoreJoules(), 0.0)),
                  cfg.vRestore);

        Rng rng(seed++);
        for (int i = 0; i < 100000 && !HasFatalFailure(); ++i)
            check(rng.real() * ceiling);
        check(0.0);
        check(ceiling);
    }
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
    const auto expect_fresh = [](const PowerTrace &shared) {
        const auto fresh = makeTrace(TraceKind::RfHome, 3000, 77, 1.5);
        ASSERT_EQ(shared.length(), fresh->length());
        EXPECT_EQ(shared.name(), fresh->name());
        for (std::uint64_t i = 0; i < fresh->length(); ++i)
            ASSERT_EQ(shared.power(i), fresh->power(i)) << "sample " << i;
    };

    const auto first = sharedTrace(TraceKind::RfHome, 3000, 77, 1.5);
    expect_fresh(*first);
    EXPECT_EQ(sharedTrace(TraceKind::RfHome, 3000, 77, 1.5), first)
        << "a repeated request must hit the memo";

    // Every slot taken by another key evicts the first trace; asking
    // again regenerates it, sample for sample.
    for (std::uint64_t seed = 0; seed < sharedTraceSlots; ++seed)
        sharedTrace(TraceKind::Solar, 500, seed, 1.0);
    const auto again = sharedTrace(TraceKind::RfHome, 3000, 77, 1.5);
    EXPECT_NE(again, first) << "the memo kept more than its slots";
    expect_fresh(*again);
    expect_fresh(*first); // the evicted copy is still intact

    // Keys differ in every field, including the scale's sign bit.
    EXPECT_NE(sharedTrace(TraceKind::Constant, 10, 1, 0.0),
              sharedTrace(TraceKind::Constant, 10, 1, -0.0));
    EXPECT_NE(sharedTrace(TraceKind::RfHome, 3000, 78, 1.5), again);
    EXPECT_NE(sharedTrace(TraceKind::RfHome, 3001, 77, 1.5), again);
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
    ledger.add(EnergyCategory::Compress, 10.0);
    ledger.add(EnergyCategory::Compress, 5.0);
    ledger.add(EnergyCategory::Memory, 100.0);
    EXPECT_DOUBLE_EQ(ledger.total(EnergyCategory::Compress), 15.0);
    EXPECT_DOUBLE_EQ(ledger.total(EnergyCategory::Memory), 100.0);
    EXPECT_DOUBLE_EQ(ledger.total(EnergyCategory::Others), 0.0);
    EXPECT_DOUBLE_EQ(ledger.grandTotal(), 115.0);
}

TEST(Ledger, ResetZeroesEverything)
{
    EnergyLedger ledger;
    ledger.add(EnergyCategory::Checkpoint, 42.0);
    ledger.reset();
    EXPECT_DOUBLE_EQ(ledger.grandTotal(), 0.0);
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
