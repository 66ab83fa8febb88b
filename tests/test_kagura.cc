/**
 * @file
 * Tests for the Kagura controller: the five registers and their
 * update protocol (Section VI / Fig. 10), mode switching with the
 * memory and voltage triggers, the reward/punishment counter, the
 * history-depth estimator (Table II), threshold adaptation schemes
 * (Fig. 21), and the ACC governor with its GCP dynamics.
 */

#include <gtest/gtest.h>

#include "cache/acc.hh"
#include "kagura/adapt_policy.hh"
#include "kagura/kagura.hh"

namespace kagura
{
namespace
{

// --- ACC / GCP --------------------------------------------------------

TEST(Acc, StartsEnabled)
{
    AccController acc;
    EXPECT_TRUE(acc.shouldCompress(0));
    EXPECT_TRUE(acc.runCompressor(0));
}

TEST(Acc, EnabledHitRaisesPredictor)
{
    AccController acc;
    const std::int64_t before = acc.predictor();
    acc.noteCompressionEnabledHit(0x100);
    EXPECT_GT(acc.predictor(), before);
}

TEST(Acc, WastedDecompressionsDisableEventually)
{
    AccConfig cfg;
    cfg.initialValue = 3;
    AccController acc(cfg);
    for (int i = 0; i < 3; ++i)
        acc.noteWastedDecompression(0);
    EXPECT_FALSE(acc.shouldCompress(0));
}

TEST(Acc, IncompressibleAttemptsDisablePlacement)
{
    AccConfig cfg;
    cfg.initialValue = 4;
    cfg.incompressiblePenalty = 2;
    AccController acc(cfg);
    acc.noteIncompressible(0);
    acc.noteIncompressible(0);
    EXPECT_FALSE(acc.shouldCompress(0));
    // The learning datapath keeps running until the run floor.
    EXPECT_TRUE(acc.runCompressor(0));
}

TEST(Acc, RunFloorGatesTheDatapath)
{
    AccConfig cfg;
    cfg.initialValue = 1;
    cfg.incompressiblePenalty = 1;
    cfg.runFloor = -4;
    AccController acc(cfg);
    for (int i = 0; i < 5; ++i)
        acc.noteIncompressible(0);
    EXPECT_FALSE(acc.runCompressor(0));
}

TEST(Acc, DisabledMissRecoversNegativePredictor)
{
    AccConfig cfg;
    cfg.initialValue = 1;
    AccController acc(cfg);
    for (int i = 0; i < 50; ++i)
        acc.noteWastedDecompression(0);
    EXPECT_FALSE(acc.shouldCompress(0));
    // Each attributable miss credits a full miss penalty; a handful
    // outweigh the accumulated decompression debits.
    for (int i = 0; i < 4; ++i)
        acc.noteCompressionDisabledMiss(0);
    EXPECT_TRUE(acc.shouldCompress(0));
}

TEST(Acc, PredictorSaturates)
{
    AccConfig cfg;
    cfg.saturationBound = 100;
    cfg.benefitQuantum = 60;
    AccController acc(cfg);
    acc.noteCompressionEnabledHit(0);
    acc.noteCompressionEnabledHit(0);
    acc.noteCompressionEnabledHit(0);
    EXPECT_EQ(acc.predictor(), 100);
}

TEST(Acc, ResetRestoresInitialValue)
{
    AccController acc;
    acc.noteCompressionEnabledHit(0);
    acc.reset();
    EXPECT_EQ(acc.predictor(), AccConfig{}.initialValue);
}

// --- adaptation policies ----------------------------------------------

TEST(AdaptPolicy, AimdHalvesUnderPressure)
{
    EXPECT_EQ(adaptThreshold(AdaptScheme::Aimd, 100, 50, 0.10), 50u);
}

TEST(AdaptPolicy, AimdAdds10PctWhenQuiet)
{
    EXPECT_EQ(adaptThreshold(AdaptScheme::Aimd, 100, 0, 0.10), 110u);
}

TEST(AdaptPolicy, AdditiveStepIsAtLeastOne)
{
    EXPECT_EQ(adaptThreshold(AdaptScheme::Aimd, 2, 0, 0.10), 3u);
}

TEST(AdaptPolicy, MiadDoublesWhenQuiet)
{
    EXPECT_EQ(adaptThreshold(AdaptScheme::Miad, 100, 0, 0.10), 200u);
    EXPECT_EQ(adaptThreshold(AdaptScheme::Miad, 100, 50, 0.10), 90u);
}

TEST(AdaptPolicy, AiadIsFullyAdditive)
{
    EXPECT_EQ(adaptThreshold(AdaptScheme::Aiad, 100, 0, 0.10), 110u);
    EXPECT_EQ(adaptThreshold(AdaptScheme::Aiad, 100, 50, 0.10), 90u);
}

TEST(AdaptPolicy, MimdIsFullyMultiplicative)
{
    EXPECT_EQ(adaptThreshold(AdaptScheme::Mimd, 100, 0, 0.10), 200u);
    EXPECT_EQ(adaptThreshold(AdaptScheme::Mimd, 100, 50, 0.10), 50u);
}

TEST(AdaptPolicy, ClampsToBounds)
{
    EXPECT_EQ(adaptThreshold(AdaptScheme::Aimd, minThreshold, 1000, 0.10),
              minThreshold);
    EXPECT_EQ(adaptThreshold(AdaptScheme::Mimd, maxThreshold, 0, 0.10),
              maxThreshold);
}

TEST(AdaptPolicy, PressureFractionScalesTheTrip)
{
    // 5 misses over a 100-op window: quiet at 8%, pressured at 2%.
    EXPECT_GT(adaptThreshold(AdaptScheme::Aimd, 100, 5, 0.10, 0.08), 100u);
    EXPECT_LT(adaptThreshold(AdaptScheme::Aimd, 100, 5, 0.10, 0.02), 100u);
}

TEST(AdaptPolicy, SchemeNames)
{
    EXPECT_STREQ(adaptSchemeName(AdaptScheme::Aimd), "AIMD");
    EXPECT_STREQ(adaptSchemeName(AdaptScheme::Miad), "MIAD");
    EXPECT_STREQ(adaptSchemeName(AdaptScheme::Aiad), "AIAD");
    EXPECT_STREQ(adaptSchemeName(AdaptScheme::Mimd), "MIMD");
}

// --- Kagura controller -------------------------------------------------

KaguraConfig
testConfig()
{
    KaguraConfig cfg;
    cfg.initialThreshold = 8;
    return cfg;
}

TEST(Kagura, StartsInCompressionMode)
{
    KaguraController kagura(testConfig(), nullptr);
    EXPECT_EQ(kagura.mode(), KaguraController::Mode::Compression);
    EXPECT_TRUE(kagura.shouldCompress(0));
}

TEST(Kagura, MemoryTriggerEntersRegularMode)
{
    // Warm the estimator with identical 40-op cycles so the damped
    // adjustment converges and the confidence counter saturates.
    KaguraController kagura(testConfig(), nullptr);
    for (int cycle = 0; cycle < 8; ++cycle) {
        for (int i = 0; i < 40; ++i)
            kagura.onMemOpCommit();
        kagura.onPowerFailure();
        kagura.onReboot();
    }
    EXPECT_EQ(kagura.prevEstimate(), 40u);
    EXPECT_EQ(kagura.memCount(), 0u);
    EXPECT_EQ(kagura.mode(), KaguraController::Mode::Compression);

    // Next cycle: with R_prev = 40 and R_thres ~ 10ish, compression
    // must turn off once R_prev - R_mem <= R_thres.
    const std::uint64_t thres = kagura.threshold();
    int switched_at = -1;
    for (int i = 1; i <= 40; ++i) {
        kagura.onMemOpCommit();
        if (switched_at < 0 &&
            kagura.mode() == KaguraController::Mode::Regular) {
            switched_at = i;
        }
    }
    ASSERT_GT(switched_at, 0);
    EXPECT_EQ(static_cast<std::uint64_t>(switched_at), 40 - thres);
    EXPECT_FALSE(kagura.shouldCompress(0));
    EXPECT_FALSE(kagura.runCompressor(0));
}

TEST(Kagura, RegisterProtocolMatchesFig10)
{
    KaguraConfig cfg = testConfig();
    cfg.counterBits = 2;
    cfg.rewardBand = 0.20;
    KaguraController kagura(cfg, nullptr);

    // Cycle 1: commit 20 mem ops, fail.
    for (int i = 0; i < 20; ++i)
        kagura.onMemOpCommit();
    kagura.onPowerFailure();
    // R_adjust = R_mem - R_prev = 20 - 0 = 20: a bad estimate, so the
    // counter was punished below the apply-threshold.
    EXPECT_EQ(kagura.adjust(), 20);
    kagura.onReboot();
    // Low confidence: R_prev = restored R_mem + damped R_adjust = 30.
    EXPECT_EQ(kagura.prevEstimate(), 30u);

    // Cycle 2: commit 22 ops; R_adjust becomes 22 - 30 = -8.
    for (int i = 0; i < 22; ++i)
        kagura.onMemOpCommit();
    kagura.onPowerFailure();
    EXPECT_EQ(kagura.adjust(), -8);
}

TEST(Kagura, RewardWhenEstimateIsClose)
{
    KaguraController kagura(testConfig(), nullptr);
    // Stabilise on 100-op cycles first.
    for (int cycle = 0; cycle < 8; ++cycle) {
        for (int i = 0; i < 100; ++i)
            kagura.onMemOpCommit();
        kagura.onPowerFailure();
        kagura.onReboot();
    }
    const std::uint64_t rewards_before = kagura.stats().rewards;
    for (int i = 0; i < 98; ++i) // within the 20% reward band
        kagura.onMemOpCommit();
    kagura.onPowerFailure();
    EXPECT_GT(kagura.stats().rewards, rewards_before);
    EXPECT_EQ(kagura.counter(), 3u);
}

TEST(Kagura, PunishmentWhenEstimateIsFarOff)
{
    KaguraController kagura(testConfig(), nullptr);
    for (int cycle = 0; cycle < 8; ++cycle) {
        for (int i = 0; i < 100; ++i)
            kagura.onMemOpCommit();
        kagura.onPowerFailure();
        kagura.onReboot();
    }
    const unsigned counter_before = kagura.counter();
    for (int i = 0; i < 30; ++i) // way off the estimate
        kagura.onMemOpCommit();
    kagura.onPowerFailure();
    EXPECT_LT(kagura.counter(), counter_before);
    EXPECT_GE(kagura.stats().punishments, 1u);
}

TEST(Kagura, ConfidentCounterSkipsAdjustment)
{
    KaguraConfig cfg = testConfig();
    KaguraController kagura(cfg, nullptr);
    // Consistent cycles: the damped adjustment converges the estimate
    // into the reward band, after which the counter saturates high and
    // the raw previous count is used unmodified.
    for (int cycle = 0; cycle < 8; ++cycle) {
        for (int i = 0; i < 50; ++i)
            kagura.onMemOpCommit();
        kagura.onPowerFailure();
        kagura.onReboot();
    }
    EXPECT_EQ(kagura.counter(), 3u); // saturated 2-bit counter
    EXPECT_EQ(kagura.prevEstimate(), 50u);
}

TEST(Kagura, ThresholdGrowsWhenRegularModeIsHarmless)
{
    KaguraController kagura(testConfig(), nullptr);
    const std::uint64_t t0 = kagura.threshold();
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int i = 0; i < 50; ++i)
            kagura.onMemOpCommit();
        kagura.onPowerFailure();
        kagura.onReboot(); // R_evict = 0 each cycle
    }
    EXPECT_GT(kagura.threshold(), t0);
}

TEST(Kagura, ThresholdHalvesUnderMissPressure)
{
    KaguraConfig cfg = testConfig();
    cfg.initialThreshold = 64;
    KaguraController kagura(cfg, nullptr);
    // Cycle 1 establishes R_prev.
    for (int i = 0; i < 100; ++i)
        kagura.onMemOpCommit();
    kagura.onPowerFailure();
    kagura.onReboot();
    // Cycle 2: enter RM, then suffer many compression-attributable
    // misses.
    for (int i = 0; i < 100; ++i)
        kagura.onMemOpCommit();
    ASSERT_EQ(kagura.mode(), KaguraController::Mode::Regular);
    for (int i = 0; i < 30; ++i)
        kagura.noteCompressionDisabledMiss(0x40 * i);
    EXPECT_EQ(kagura.evictCount(), 30u);
    const std::uint64_t before = kagura.threshold();
    kagura.onPowerFailure();
    kagura.onReboot();
    EXPECT_EQ(kagura.threshold(), before / 2); // AIMD halving
    EXPECT_EQ(kagura.evictCount(), 0u); // reset for the new cycle
}

TEST(Kagura, DisabledMissesInCompressionModeDoNotCount)
{
    KaguraController kagura(testConfig(), nullptr);
    kagura.noteCompressionDisabledMiss(0);
    EXPECT_EQ(kagura.evictCount(), 0u);
}

TEST(Kagura, VoltageTriggerSwitchesBelowThreshold)
{
    KaguraConfig cfg = testConfig();
    cfg.trigger = TriggerKind::Voltage;
    cfg.voltageTriggerFraction = 0.25;
    KaguraController kagura(cfg, nullptr);
    // v_trigger = 2.5 + 0.25 * (2.6 - 2.5) = 2.525: the simulator
    // calls onVoltageTrigger() once the stored energy is at or below
    // that voltage's cut point.
    EXPECT_DOUBLE_EQ(KaguraController::triggerVoltage(cfg, 2.5, 2.6),
                     2.525);
    EXPECT_EQ(kagura.mode(), KaguraController::Mode::Compression);
    kagura.onVoltageTrigger();
    EXPECT_EQ(kagura.mode(), KaguraController::Mode::Regular);
}

TEST(Kagura, MemoryTriggerIgnoresVoltageSamples)
{
    KaguraController kagura(testConfig(), nullptr);
    kagura.onVoltageTrigger();
    EXPECT_EQ(kagura.mode(), KaguraController::Mode::Compression);
}

TEST(Kagura, HistoryDepthWeightsRecentCycles)
{
    KaguraConfig cfg = testConfig();
    cfg.historyDepth = 2;
    KaguraController kagura(cfg, nullptr);
    // Cycle lengths 30 then 60: weighted estimate (30*1 + 60*2)/3 = 50.
    for (int i = 0; i < 30; ++i)
        kagura.onMemOpCommit();
    kagura.onPowerFailure();
    kagura.onReboot();
    for (int i = 0; i < 60; ++i)
        kagura.onMemOpCommit();
    kagura.onPowerFailure();
    kagura.onReboot();
    // Low confidence applies the damped adjustment on top of the
    // weighted history estimate.
    const std::int64_t expected = 50 + kagura.adjust() / 2;
    EXPECT_EQ(kagura.prevEstimate(),
              static_cast<std::uint64_t>(expected));
}

TEST(Kagura, ForwardsEventsToInnerGovernor)
{
    AccController acc;
    KaguraController kagura(testConfig(), &acc);
    const std::int64_t before = acc.predictor();
    kagura.noteCompressionEnabledHit(0);
    EXPECT_GT(acc.predictor(), before);
    // Inner veto propagates in CM.
    for (int i = 0; i < 10000; ++i)
        kagura.noteWastedDecompression(0);
    EXPECT_FALSE(kagura.shouldCompress(0));
}

TEST(Kagura, RegularModeOverridesInnerGovernor)
{
    FixedGovernor always(true);
    KaguraConfig cfg = testConfig();
    cfg.initialThreshold = 1000; // triggers immediately
    KaguraController kagura(cfg, &always);
    kagura.onMemOpCommit();
    EXPECT_EQ(kagura.mode(), KaguraController::Mode::Regular);
    EXPECT_FALSE(kagura.shouldCompress(0));
    EXPECT_FALSE(kagura.runCompressor(0));
}

TEST(Kagura, HardwareBudgetMatchesSectionVIIIA)
{
    // Five 32-bit registers + one 2-bit counter = 162 bits.
    EXPECT_EQ(KaguraController::hardwareBits, 162u);
}

TEST(Kagura, RejectsBadConfigs)
{
    KaguraConfig bad;
    bad.counterBits = 0;
    EXPECT_EXIT({ KaguraController k(bad, nullptr); },
                testing::ExitedWithCode(1), "counter width");
    KaguraConfig bad2;
    bad2.historyDepth = 0;
    EXPECT_EXIT({ KaguraController k(bad2, nullptr); },
                testing::ExitedWithCode(1), "history depth");
    KaguraConfig bad3;
    bad3.increaseStep = 1.5;
    EXPECT_EXIT({ KaguraController k(bad3, nullptr); },
                testing::ExitedWithCode(1), "increase step");
}

TEST(Kagura, CounterBitsBoundTheCounter)
{
    for (unsigned bits = 1; bits <= 3; ++bits) {
        KaguraConfig cfg = testConfig();
        cfg.counterBits = bits;
        KaguraController kagura(cfg, nullptr);
        // Saturate upward with consistently-close estimates.
        for (int cycle = 0; cycle < 24; ++cycle) {
            for (int i = 0; i < 50; ++i)
                kagura.onMemOpCommit();
            kagura.onPowerFailure();
            kagura.onReboot();
        }
        EXPECT_EQ(kagura.counter(), (1u << bits) - 1) << bits;
    }
}

} // namespace
} // namespace kagura
