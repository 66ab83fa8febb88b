/**
 * @file
 * EnergyMeter: the platform's energy/time layer, factored out of the
 * simulator core. It owns the capacitor, the ambient power trace, and
 * the wall clock, and couples them to the run's EnergyLedger:
 *
 *  - spend()/spendEach() attribute dynamic energy to a Fig. 16
 *    category and draw it from the capacitor (unless the platform is
 *    infinite-energy).
 *  - chargeStaticPower() meters leakage + standby power over active
 *    cycles.
 *  - advanceWall() moves wall time forward, harvesting ambient energy
 *    interval by interval.
 *  - rechargeUntilRestore() models the off state: wall time passes,
 *    the trace recharges the buffer, the capacitor's own leakage
 *    discharges it, until V >= V_rst.
 *
 * Every amount is an integer count of zeptojoules, so the ledger and
 * the stored level balance exactly (see harvested()). The capacitor's
 * leakage depends on its voltage; it is evaluated once per 10 us trace
 * interval, not per draw.
 *
 * The meter is policy-free: what to spend and when to recharge is the
 * PowerStateMachine's business (src/sim/power_state.hh); the meter
 * guarantees that identical call sequences produce bit-identical
 * ledgers and wall clocks.
 */

#ifndef KAGURA_ENERGY_METER_HH
#define KAGURA_ENERGY_METER_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "energy/capacitor.hh"
#include "energy/energy_model.hh"
#include "energy/ledger.hh"
#include "energy/power_trace.hh"

namespace kagura
{

/** The energy/time layer of the platform. */
class EnergyMeter
{
  public:
    /**
     * @param cap_config Capacitor parameters (buffer + thresholds).
     * @param energy Platform energy model (per-event costs, clock).
     * @param cache_leakage_watts Total SRAM leakage of both caches.
     * @param nvm_standby_watts NVM standby power.
     * @param harvest Per-interval harvest of the ambient trace
     *        (shared: read-only, so many meters may replay one table;
     *        see sharedHarvest()).
     * @param ledger Run ledger every spend is attributed to.
     * @param infinite_energy Disable the capacitor (the buffer never
     *        discharges, so the power state machine never trips).
     */
    EnergyMeter(const CapacitorConfig &cap_config,
                const EnergyModel &energy, Watts cache_leakage_watts,
                Watts nvm_standby_watts,
                std::shared_ptr<const HarvestTable> harvest,
                EnergyLedger &ledger, bool infinite_energy);

    /** The same, building the harvest table from @p trace. */
    EnergyMeter(const CapacitorConfig &cap_config,
                const EnergyModel &energy, Watts cache_leakage_watts,
                Watts nvm_standby_watts,
                std::shared_ptr<const PowerTrace> trace,
                EnergyLedger &ledger, bool infinite_energy);

    // The spends, chargeStaticPower and advanceWall run several times
    // per simulated op, so they live in the header: out of line, the
    // call overhead shows up in perfbench's energy.meter_ns_per_step
    // and in the end-to-end sim_minst_per_s.

    /** Account @p zj into @p cat and draw it from the capacitor. */
    void
    spendZj(EnergyCategory cat, ZeptoJoules zj)
    {
        ledger.add(cat, zj);
        draw(zj);
    }

    /**
     * spendZj() of @p pj picojoules, rounded to the nearest zJ; a
     * negative amount draws nothing.
     */
    void
    spend(EnergyCategory cat, PicoJoules pj)
    {
        spendZj(cat, picoToZepto(std::max(pj, 0.0)));
    }

    /**
     * One step's dynamic energy, @p step's amount for every category:
     * the ledger takes each, the capacitor their sum in one draw.
     */
    void
    spendEach(const EnergyLedger &step)
    {
        ZeptoJoules sum = 0;
        for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c) {
            ledger.zj[c] += step.zj[c];
            sum += step.zj[c];
        }
        draw(sum);
    }

    /**
     * Leakage + standby power over @p n active cycles. The capacitor's
     * own leakage rate is the one refreshed when the last trace
     * interval closed (see refreshLeakage()).
     */
    void
    chargeStaticPower(Cycles n)
    {
        const auto cycles = static_cast<ZeptoJoules>(n);
        ledger.add(EnergyCategory::CacheOther, cycles * cacheLeakZj);
        ledger.add(EnergyCategory::Memory, cycles * standbyZj);
        ledger.add(EnergyCategory::Others, cycles * othersStaticZj);
        draw(cycles * staticZj);
    }

    /** Advance wall time by @p n cycles, harvesting from the trace. */
    void
    advanceWall(Cycles n)
    {
        wallCycles += n;
        if (wallCycles >= nextIntervalEnd) [[unlikely]]
            harvestClosedIntervals();
    }

    /** Hibernate until the capacitor recovers to V_rst. */
    void rechargeUntilRestore();

    /** Wall-clock cycles so far (includes recharge phases). */
    Cycles wall() const { return wallCycles; }

    /** Stored energy. */
    ZeptoJoules stored() const { return cap.stored(); }

    /**
     * Has the buffer dropped below V_ckpt while running? Always false
     * on an infinite-energy platform.
     */
    bool
    failureImminent() const
    {
        return !infinite && cap.belowCheckpoint();
    }

    /** Is the power subsystem disabled? */
    bool infiniteEnergy() const { return infinite; }

    /** The capacitor (tests; voltage-gated components). */
    const Capacitor &capacitor() const { return cap; }

    /** Mutable capacitor access (tests set initial conditions). */
    Capacitor &capacitor() { return cap; }

    // The energy balance: over a run, the stored level moves by
    // harvested() - spilled() - ledger + unfunded(), exactly.

    /** Energy the trace delivered so far, spilled or not. */
    ZeptoJoules harvested() const { return harvestedZj; }

    /** Harvest turned away because the capacitor was full. */
    ZeptoJoules spilled() const { return spilledZj; }

    /**
     * Energy the ledger recorded that the capacitor did not supply:
     * the part of a draw past empty, and every draw on an
     * infinite-energy platform.
     */
    ZeptoJoules unfunded() const { return unfundedZj; }

    /**
     * The run's counters -- the ledger total, harvested() and
     * unfunded() (and so spilled() and every bucket) -- must stay
     * below this, 2^62 zJ (4.6 mJ): the run ends with a fatal error
     * when a trace interval closes past it, still a factor of two
     * short of the int64 range.
     */
    static constexpr ZeptoJoules counterLimitZj = ZeptoJoules{1} << 62;

  private:
    /** Take @p zj from the capacitor, clamping (and counting) at 0. */
    void
    draw(ZeptoJoules zj)
    {
        if (infinite) [[unlikely]] {
            unfundedZj += zj;
            return;
        }
        ZeptoJoules left = cap.stored() - zj;
        if (left < 0) [[unlikely]] {
            unfundedZj -= left;
            left = 0;
        }
        cap.setStored(left);
    }

    /**
     * Add the harvest of the interval closing at nextIntervalEnd to
     * @p stored (a level the caller holds), spilling what overflows,
     * and move on to the next interval; returns the new level.
     */
    ZeptoJoules
    harvestInterval(ZeptoJoules stored)
    {
        const ZeptoJoules gain = harvest->at(harvestCursor);
        if (++harvestCursor == harvest->length())
            harvestCursor = 0;
        harvestedZj += gain;
        nextIntervalEnd += traceIntervalCycles;
        const ZeptoJoules room = cap.ceiling() - stored;
        if (gain > room) {
            spilledZj += gain - room;
            return cap.ceiling();
        }
        return stored + gain;
    }

    /** Harvest every trace interval that ended by wallCycles. */
    void harvestClosedIntervals();

    /** fatal() once a run counter reaches counterLimitZj. */
    void checkCounterRange() const;

    /**
     * Re-evaluate the capacitor's leakage at stored level @p stored:
     * the rate chargeStaticPower() and the recharge loop charge until
     * the next trace interval closes.
     */
    void
    refreshLeakage(ZeptoJoules stored)
    {
        // leakagePowerAt() is a constant times sqrt(E); rounded half
        // up (the operand is never negative) without a libm call.
        capLeakZj = static_cast<ZeptoJoules>(
            leakPerRootZj * std::sqrt(static_cast<double>(stored)) + 0.5);
        othersStaticZj = coreLeakZj + capLeakZj;
        staticZj = cacheLeakZj + standbyZj + othersStaticZj;
    }

    EnergyLedger &ledger;
    Capacitor cap;
    std::shared_ptr<const HarvestTable> harvest;

    /** EnergyModel::cyclesPerTraceInterval(). */
    Cycles traceIntervalCycles;

    /** Standing draws per active cycle: cache leakage, NVM standby,
     *  core leakage, and the capacitor's own leakage (refreshed per
     *  interval); Others is the last two, static all four. */
    ZeptoJoules cacheLeakZj;
    ZeptoJoules standbyZj;
    ZeptoJoules coreLeakZj;
    /** The capacitor's leakage per cycle, in zJ per sqrt(stored zJ). */
    double leakPerRootZj;
    ZeptoJoules capLeakZj = 0;
    ZeptoJoules othersStaticZj = 0;
    ZeptoJoules staticZj = 0;

    bool infinite;
    Cycles wallCycles = 0;
    /** Wall time at which the next trace interval closes. */
    Cycles nextIntervalEnd;
    /** The harvest table entry of that interval. */
    std::uint64_t harvestCursor = 0;

    ZeptoJoules harvestedZj = 0;
    ZeptoJoules spilledZj = 0;
    ZeptoJoules unfundedZj = 0;
};

} // namespace kagura

#endif // KAGURA_ENERGY_METER_HH
