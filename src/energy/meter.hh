/**
 * @file
 * EnergyMeter: the platform's energy/time layer, factored out of the
 * simulator core. It owns the capacitor, the ambient power trace, and
 * the wall clock, and couples them to the run's EnergyLedger:
 *
 *  - spend() attributes dynamic energy to a Fig. 16 category and draws
 *    it from the capacitor (unless the platform is infinite-energy).
 *  - chargeStaticPower() meters leakage + standby power over active
 *    cycles.
 *  - advanceWall() moves wall time forward, harvesting ambient energy
 *    interval by interval.
 *  - rechargeUntilRestore() models the off state: wall time passes,
 *    the trace recharges the buffer, the capacitor's own leakage
 *    discharges it, until V >= V_rst.
 *
 * The meter is policy-free: what to spend and when to recharge is the
 * PowerStateMachine's business (src/sim/power_state.hh); the meter
 * guarantees that identical call sequences produce bit-identical
 * ledgers and wall clocks.
 */

#ifndef KAGURA_ENERGY_METER_HH
#define KAGURA_ENERGY_METER_HH

#include <cstddef>
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
     * @param trace Ambient power trace (shared: read-only, so many
     *        meters may replay one trace; a unique_ptr converts).
     * @param ledger Run ledger every spend is attributed to.
     * @param infinite_energy Disable the capacitor (the buffer never
     *        discharges, so the power state machine never trips).
     */
    EnergyMeter(const CapacitorConfig &cap_config,
                const EnergyModel &energy, Watts cache_leakage_watts,
                Watts nvm_standby_watts,
                std::shared_ptr<const PowerTrace> trace,
                EnergyLedger &ledger, bool infinite_energy);

    // spend/chargeStaticPower/advanceWall are called several times per
    // simulated op, so they live in the header: out of line, the call
    // overhead shows up in perfbench's energy.meter_ns_per_step and
    // in the end-to-end sim_minst_per_s.

    /** Account @p pj into @p cat and draw it from the capacitor. */
    void
    spend(EnergyCategory cat, PicoJoules pj)
    {
        cap.setStoredJoules(drawFrom(cap.storedJoules(), cat, pj));
    }

    /** One draw of a batch: @p pj picojoules for @p cat (<= 0: none). */
    struct Draw
    {
        EnergyCategory cat;
        PicoJoules pj;
    };

    /**
     * spend() each of @p draws in order -- the same ledger and the
     * same stored energy as the calls one by one, with the level held
     * in a register across the batch (see Capacitor::drained()).
     */
    template <std::size_t N>
    void
    spendEach(const Draw (&draws)[N])
    {
        double stored = cap.storedJoules();
        for (const Draw &draw : draws)
            stored = drawFrom(stored, draw.cat, draw.pj);
        cap.setStoredJoules(stored);
    }

    /** Leakage + standby power over @p n active cycles. */
    void
    chargeStaticPower(Cycles n)
    {
        if (n == 0)
            return;
        const double dt = static_cast<double>(n) * cycleSeconds;
        double stored = cap.storedJoules();
        stored = drawFrom(stored, EnergyCategory::CacheOther,
                          joulesToPico(cacheLeakage * dt));
        stored = drawFrom(stored, EnergyCategory::Memory,
                          joulesToPico(nvmStandby * dt));
        stored = drawFrom(
            stored, EnergyCategory::Others,
            joulesToPico((energy.coreLeakage + cap.leakagePowerAt(stored)) *
                         dt));
        cap.setStoredJoules(stored);
    }

    /** Advance wall time by @p n cycles, harvesting from the trace. */
    void
    advanceWall(Cycles n)
    {
        cap.setStoredJoules(harvestTo(cap.storedJoules(), wallCycles + n));
    }

    /** Hibernate until the capacitor recovers to V_rst. */
    void rechargeUntilRestore();

    /** Wall-clock cycles so far (includes recharge phases). */
    Cycles wall() const { return wallCycles; }

    /** Current capacitor voltage. */
    double voltage() const { return cap.voltage(); }

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

    /** The ambient trace driving the harvest. */
    const PowerTrace &powerTrace() const { return *trace; }

  private:
    /**
     * Move wall time to @p end, harvesting every trace interval that
     * completes into @p stored (a level the caller holds); returns it.
     */
    double
    harvestTo(double stored, Cycles end)
    {
        const Cycles ivl = traceIntervalCycles;
        while ((harvestedIntervals + 1) * ivl <= end) {
            stored = cap.charged(stored, trace->power(harvestedIntervals) *
                                             energy.traceInterval);
            ++harvestedIntervals;
        }
        wallCycles = end;
        return stored;
    }

    /** spend() on a stored energy the caller holds; returns the rest. */
    double
    drawFrom(double stored, EnergyCategory cat, PicoJoules pj)
    {
        if (pj <= 0.0)
            return stored;
        ledger.add(cat, pj);
        return infinite ? stored
                        : Capacitor::drained(stored, picoToJoules(pj));
    }

    const EnergyModel &energy;
    EnergyLedger &ledger;
    Capacitor cap;
    std::shared_ptr<const PowerTrace> trace;

    /** Precomputed standing powers charged per active cycle. */
    Watts cacheLeakage;
    Watts nvmStandby;

    /** energy.cycleTime() and energy.cyclesPerTraceInterval(). */
    Seconds cycleSeconds;
    Cycles traceIntervalCycles;

    bool infinite;
    Cycles wallCycles = 0;
    std::uint64_t harvestedIntervals = 0;
};

} // namespace kagura

#endif // KAGURA_ENERGY_METER_HH
