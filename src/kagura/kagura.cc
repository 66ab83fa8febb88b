#include "kagura/kagura.hh"

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace kagura
{

void
KaguraStats::recordMetrics(metrics::MetricSet &set,
                           std::string_view prefix) const
{
    const auto leaf = [&](std::string_view name, std::uint64_t value) {
        std::string full(prefix);
        full += '/';
        full += name;
        set.counter(full).add(value);
    };
    leaf("mode_switches", modeSwitches);
    leaf("mem_ops_in_rm", memOpsInRm);
    leaf("rm_evictions", rmEvictions);
    leaf("rewards", rewards);
    leaf("punishments", punishments);
}

KaguraController::KaguraController(const KaguraConfig &config,
                                   CompressionGovernor *inner_)
    : cfg(config), inner(inner_), rThres(config.initialThreshold)
{
    if (cfg.counterBits < 1 || cfg.counterBits > 8)
        fatal("Kagura counter width must be 1..8 bits (got %u)",
              cfg.counterBits);
    if (cfg.historyDepth < 1 || cfg.historyDepth > 8)
        fatal("Kagura history depth must be 1..8 (got %u)",
              cfg.historyDepth);
    if (cfg.increaseStep <= 0.0 || cfg.increaseStep >= 1.0)
        fatal("Kagura increase step must be in (0,1) (got %g)",
              cfg.increaseStep);
    // Start the counter at the weakly-confident midpoint.
    satCounter = (counterMax() + 1) / 2;
}

bool
KaguraController::shouldCompress(Addr addr)
{
    if (currentMode == Mode::Regular)
        return false;
    return inner ? inner->shouldCompress(addr) : true;
}

bool
KaguraController::runCompressor(Addr addr)
{
    // Regular Mode power-gates the compressor datapath outright; in
    // Compression Mode the inner governor's engagement rule applies.
    if (currentMode == Mode::Regular)
        return false;
    return inner ? inner->runCompressor(addr) : true;
}

void
KaguraController::noteCompressionEnabledHit(Addr addr)
{
    if (inner)
        inner->noteCompressionEnabledHit(addr);
}

void
KaguraController::noteWastedDecompression(Addr addr)
{
    if (inner)
        inner->noteWastedDecompression(addr);
}

void
KaguraController::noteCompressionContribution(Addr addr)
{
    if (inner)
        inner->noteCompressionContribution(addr);
}

void
KaguraController::noteEviction(Addr addr, bool avoidable)
{
    (void)avoidable;
    if (inner)
        inner->noteEviction(addr, avoidable);
}

void
KaguraController::noteCompressionDisabledMiss(Addr addr)
{
    // R_evict integrates the real cost signal of Regular Mode: blocks
    // lost "due to disabled compression" that the program then missed
    // on (Section VI-B). A high count means the threshold is too high
    // (compression stopped too early); a low count means Regular Mode
    // is harmless and can start earlier.
    if (currentMode == Mode::Regular) {
        ++rEvict;
        ++stat.rmEvictions;
    }
    if (inner)
        inner->noteCompressionDisabledMiss(addr);
}

void
KaguraController::noteCompression(Addr addr)
{
    if (inner)
        inner->noteCompression(addr);
}

void
KaguraController::noteRecompression(Addr addr)
{
    if (inner)
        inner->noteRecompression(addr);
}

void
KaguraController::noteIncompressible(Addr addr)
{
    if (inner)
        inner->noteIncompressible(addr);
}

void
KaguraController::noteCacheCleared()
{
    if (inner)
        inner->noteCacheCleared();
}

void
KaguraController::onMemOpCommit()
{
    ++rMem;
    if (currentMode == Mode::Regular) {
        ++stat.memOpsInRm;
        return;
    }
    if (cfg.trigger != TriggerKind::Memory)
        return;
    // N_remain = R_prev - R_mem; disable compression when it falls to
    // the threshold (Equation 5). A saturated-at-zero difference also
    // triggers: the cycle already ran longer than predicted.
    const std::uint64_t remain = rPrev > rMem ? rPrev - rMem : 0;
    if (remain <= rThres)
        enterRegularMode();
}

void
KaguraController::onVoltageSample(double volts, double v_ckpt, double v_rst)
{
    if (cfg.trigger != TriggerKind::Voltage ||
        currentMode == Mode::Regular) {
        return;
    }
    const double v_trigger =
        v_ckpt + cfg.voltageTriggerFraction * (v_rst - v_ckpt);
    if (volts <= v_trigger)
        enterRegularMode();
}

void
KaguraController::onPowerFailure()
{
    // Learning update: R_adjust records how far the estimate was off
    // (Equation 6), and the reward/punishment counter tracks whether
    // the estimate has been trustworthy lately.
    rAdjust = static_cast<std::int64_t>(rMem) -
              static_cast<std::int64_t>(rPrev);
    const double actual = static_cast<double>(rMem);
    const double error = std::abs(static_cast<double>(rAdjust));
    const bool close = error <= cfg.rewardBand * (actual > 0 ? actual : 1);
    if (close) {
        if (satCounter < counterMax())
            ++satCounter;
        ++stat.rewards;
    } else {
        if (satCounter > 0)
            --satCounter;
        ++stat.punishments;
    }
    // rMem, rThres, rAdjust, rEvict, satCounter are JIT-checkpointed
    // to NVFF here; rPrev is deliberately not (Fig. 10). In the model
    // they simply persist in this object.
}

void
KaguraController::onReboot()
{
    // Rebuild R_prev from the checkpointed R_mem -- or, for the
    // Table II study, from a recency-weighted average of the last
    // historyDepth cycles (weight i+1 for the i-th most recent).
    history.push_back(rMem);
    while (history.size() > cfg.historyDepth)
        history.pop_front();

    if (cfg.historyDepth == 1) {
        rPrev = rMem;
    } else {
        std::uint64_t weighted = 0;
        std::uint64_t weights = 0;
        std::uint64_t w = 1;
        for (std::uint64_t count : history) {
            weighted += count * w;
            weights += w;
            ++w;
        }
        rPrev = weights ? weighted / weights : rMem;
    }
    rMem = 0;

    // Apply the learning adjustment when confidence is low: for the
    // 2-bit counter this is states 00 and 01 (Section VI-A). The
    // applied correction is damped by half: the literal
    // R_prev = R_mem + R_adjust of Equation 6 overshoots (R_adjust was
    // measured against an already-adjusted estimate) and oscillates
    // with period 2 even for perfectly constant cycle lengths; halving
    // turns the recurrence into a geometrically converging one.
    if (cfg.applyAdjustment && satCounter <= counterMax() / 2) {
        const std::int64_t adjusted =
            static_cast<std::int64_t>(rPrev) + rAdjust / 2;
        rPrev = adjusted > 0 ? static_cast<std::uint64_t>(adjusted) : 0;
    }

    // Threshold adaptation from the previous cycle's eviction count.
    if (cfg.adaptiveThreshold)
        rThres = adaptThreshold(cfg.scheme, rThres, rEvict,
                                cfg.increaseStep);
    rEvict = 0;

    currentMode = Mode::Compression;
}

void
KaguraController::enterRegularMode()
{
    currentMode = Mode::Regular;
    ++stat.modeSwitches;
}

} // namespace kagura
