/**
 * @file
 * The Kagura controller (Sections V and VI): an intermittence-aware
 * wrapper around an existing compression governor.
 *
 * Kagura runs in Compression Mode (CM) after every reboot and switches
 * to Regular Mode (RM) -- compression disabled -- once the predicted
 * number of memory operations remaining in the current power cycle
 * drops to the adaptive threshold N_thres. The prediction uses the
 * previous power cycle's committed memory-op count (R_prev), refined
 * by a learning adjustment (R_adjust) gated by a 2-bit reward/
 * punishment counter; the threshold adapts via AIMD on the eviction
 * count (R_evict) of the previous cycle.
 *
 * Hardware cost, mirrored here exactly: five 32-bit registers
 * (R_mem, R_thres, R_prev, R_adjust, R_evict) and one 2-bit saturating
 * counter -- 162 bits total (Section VIII-A).
 */

#ifndef KAGURA_KAGURA_KAGURA_HH
#define KAGURA_KAGURA_KAGURA_HH

#include <cstdint>
#include <deque>

#include "cache/governor.hh"
#include "common/fields.hh"
#include "kagura/adapt_policy.hh"

namespace kagura
{

/** How Kagura detects the approach of a power failure (Fig. 19). */
enum class TriggerKind
{
    Memory,  ///< committed memory-op estimate (default)
    Voltage, ///< capacitor voltage threshold (needs extended monitor)
};

/** Trigger names, in enum order. */
inline constexpr EnumName<TriggerKind> triggerKindNames[] = {
    {TriggerKind::Memory, "mem"},
    {TriggerKind::Voltage, "vol"},
};

inline const char *
triggerKindName(TriggerKind kind)
{
    return enumName<triggerKindNames>(kind);
}

/** Kagura configuration (defaults = the paper's chosen design point). */
struct KaguraConfig
{
    /** Threshold adaptation scheme (Fig. 21: AIMD wins). */
    AdaptScheme scheme = AdaptScheme::Aimd;

    /** Additive increase step for R_thres (Fig. 22: 10% wins). */
    double increaseStep = 0.10;

    /** Reward/punishment counter width (Table IV: 2 bits win). */
    unsigned counterBits = 2;

    /** Past power cycles folded into N_prev (Table II: 1 wins). */
    unsigned historyDepth = 1;

    /** Trigger strategy (Section VIII-H2: memory-based default). */
    TriggerKind trigger = TriggerKind::Memory;

    /** Initial R_thres after the very first boot. */
    std::uint64_t initialThreshold = 32;

    /**
     * Reward band: the estimate counts as "close" when the difference
     * from the actual count is within this fraction of the actual.
     */
    double rewardBand = 0.20;

    /**
     * Voltage-trigger threshold, as a fraction of the way from
     * V_ckpt up to V_rst (only used with TriggerKind::Voltage).
     */
    double voltageTriggerFraction = 0.25;

    // --- ablation switches (design-space studies; both default on) --

    /** Apply the R_adjust learning correction (Section VI-A). */
    bool applyAdjustment = true;

    /** Adapt R_thres via the configured scheme (Section VI-B); when
     *  false the threshold stays at initialThreshold forever. */
    bool adaptiveThreshold = true;
};

/** Kagura run-time statistics. */
struct KaguraStats
{
    /** Times Kagura switched CM -> RM. */
    std::uint64_t modeSwitches = 0;
    /** Memory ops committed while in RM (compression suppressed). */
    std::uint64_t memOpsInRm = 0;
    /** Evictions observed in RM (the R_evict feedback signal). */
    std::uint64_t rmEvictions = 0;
    /** Reward counter increments. */
    std::uint64_t rewards = 0;
    /** Punishment counter decrements. */
    std::uint64_t punishments = 0;

    /** The field list (common/fields.hh), in codec order. */
    static constexpr auto
    fields()
    {
        return std::tuple{
            Member{"mode_switches", &KaguraStats::modeSwitches},
            Member{"mem_ops_in_rm", &KaguraStats::memOpsInRm},
            Member{"rm_evictions", &KaguraStats::rmEvictions},
            Member{"rewards", &KaguraStats::rewards},
            Member{"punishments", &KaguraStats::punishments},
        };
    }
};

/** The Kagura controller; wraps an inner governor (typically ACC). */
class KaguraController : public CompressionGovernor
{
  public:
    /** Operation modes (Section V). */
    enum class Mode
    {
        Compression, ///< CM: the inner governor decides
        Regular,     ///< RM: compression forced off
    };

    /**
     * @param config Design-point parameters.
     * @param inner Wrapped governor (ACC); may be nullptr, in which
     *              case CM compresses unconditionally.
     */
    explicit KaguraController(const KaguraConfig &config,
                              CompressionGovernor *inner);

    // CompressionGovernor interface ------------------------------------

    bool shouldCompress(Addr addr) override;
    bool runCompressor(Addr addr) override;
    void noteCompressionEnabledHit(Addr addr) override;
    void noteWastedDecompression(Addr addr) override;
    void noteCompressionContribution(Addr addr) override;
    void noteEviction(Addr addr, bool avoidable) override;
    void noteCompressionDisabledMiss(Addr addr) override;
    void noteCompression(Addr addr) override;
    void noteRecompression(Addr addr) override;
    void noteIncompressible(Addr addr) override;
    void noteCacheCleared() override;

    // Platform events ---------------------------------------------------

    /**
     * A memory operation committed. With the memory trigger this is
     * where the R_prev - R_mem <= R_thres comparison happens.
     */
    void onMemOpCommit();

    /**
     * The voltage at or below which the voltage trigger fires:
     * @p config's fraction of the way from @p v_ckpt up to @p v_rst.
     */
    static double triggerVoltage(const KaguraConfig &config,
                                 double v_ckpt, double v_rst);

    /**
     * A voltage sample at or below triggerVoltage(): with the voltage
     * trigger, leave Compression Mode. (The simulator compares the
     * stored energy against the trigger level itself.)
     */
    void onVoltageTrigger();

    /**
     * Power failure imminent: compute R_adjust, update the reward
     * counter, and JIT-checkpoint all registers except R_prev.
     */
    void onPowerFailure();

    /**
     * Power restored: rebuild R_prev from the checkpointed R_mem (and
     * history), apply R_adjust when the counter demands it, adapt
     * R_thres from R_evict, and re-enter CM.
     */
    void onReboot();

    // Introspection ------------------------------------------------------

    /** Current mode. */
    Mode mode() const { return currentMode; }

    /** Current R_thres. */
    std::uint64_t threshold() const { return rThres; }

    /** Current R_prev (estimate basis). */
    std::uint64_t prevEstimate() const { return rPrev; }

    /** Current R_mem. */
    std::uint64_t memCount() const { return rMem; }

    /** Current R_evict. */
    std::uint64_t evictCount() const { return rEvict; }

    /** Current R_adjust. */
    std::int64_t adjust() const { return rAdjust; }

    /** Current reward/punishment counter value. */
    unsigned counter() const { return satCounter; }

    /** Statistics. */
    const KaguraStats &stats() const { return stat; }

    /** Total register + counter bits (Section VIII-A: 162). */
    static constexpr unsigned hardwareBits = 5 * 32 + 2;

  private:
    /** Saturating counter ceiling for the configured width. */
    unsigned counterMax() const { return (1u << cfg.counterBits) - 1; }

    /** Enter RM (idempotent). */
    void enterRegularMode();

    KaguraConfig cfg;
    CompressionGovernor *inner;

    Mode currentMode = Mode::Compression;

    // The five registers (volatile; checkpointed to NVFF on failure,
    // except rPrev which is rebuilt from rMem at reboot).
    std::uint64_t rMem = 0;
    std::uint64_t rPrev = 0;
    std::uint64_t rThres;
    std::int64_t rAdjust = 0;
    std::uint64_t rEvict = 0;

    /** 2-bit (configurable) reward/punishment saturating counter. */
    unsigned satCounter;

    /** Recent per-cycle memory-op counts (historyDepth > 1). */
    std::deque<std::uint64_t> history;

    KaguraStats stat;
};

/**
 * Per-cache adapter around a shared KaguraController: each cache gets
 * its own inner governor (its own ACC instance with a private GCP, as
 * in per-cache-controller hardware) while Kagura's mode, registers,
 * and R_evict feedback are core-level and shared.
 */
class KaguraGate : public CompressionGovernor
{
  public:
    /**
     * @param controller Shared core-level Kagura state.
     * @param inner This cache's own governor (may be nullptr).
     */
    KaguraGate(KaguraController &controller, CompressionGovernor *inner_)
        : kagura(controller), inner(inner_)
    {
    }

    bool
    shouldCompress(Addr addr) override
    {
        if (kagura.mode() == KaguraController::Mode::Regular)
            return false;
        return inner ? inner->shouldCompress(addr) : true;
    }

    bool
    runCompressor(Addr addr) override
    {
        if (kagura.mode() == KaguraController::Mode::Regular)
            return false;
        return inner ? inner->runCompressor(addr) : true;
    }

    void
    noteCompressionEnabledHit(Addr addr) override
    {
        if (inner)
            inner->noteCompressionEnabledHit(addr);
    }

    void
    noteWastedDecompression(Addr addr) override
    {
        if (inner)
            inner->noteWastedDecompression(addr);
    }

    void
    noteCompressionContribution(Addr addr) override
    {
        if (inner)
            inner->noteCompressionContribution(addr);
    }

    void
    noteEviction(Addr addr, bool avoidable) override
    {
        if (inner)
            inner->noteEviction(addr, avoidable);
    }

    void
    noteCompression(Addr addr) override
    {
        if (inner)
            inner->noteCompression(addr);
    }

    void
    noteRecompression(Addr addr) override
    {
        if (inner)
            inner->noteRecompression(addr);
    }

    void
    noteIncompressible(Addr addr) override
    {
        if (inner)
            inner->noteIncompressible(addr);
    }

    void
    noteCompressionDisabledMiss(Addr addr) override
    {
        // The R_evict feedback is core-level: route it to Kagura too.
        kagura.noteCompressionDisabledMiss(addr);
        // While Regular Mode holds the compressor off, the inner
        // governor's decisions are not being executed; feeding it
        // benefit-only evidence would wind its predictor up (the
        // cost-side signals cannot flow with compression gated), so
        // its learning is frozen until Compression Mode returns.
        if (inner &&
            kagura.mode() == KaguraController::Mode::Compression) {
            inner->noteCompressionDisabledMiss(addr);
        }
    }

    void
    noteCacheCleared() override
    {
        if (inner)
            inner->noteCacheCleared();
    }

  private:
    KaguraController &kagura;
    CompressionGovernor *inner;
};

} // namespace kagura

#endif // KAGURA_KAGURA_KAGURA_HH
