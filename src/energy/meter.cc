#include "energy/meter.hh"

#include "common/logging.hh"

namespace kagura
{

EnergyMeter::EnergyMeter(const CapacitorConfig &cap_config,
                         const EnergyModel &energy,
                         Watts cache_leakage_watts,
                         Watts nvm_standby_watts,
                         std::shared_ptr<const HarvestTable> harvest_,
                         EnergyLedger &ledger_, bool infinite_energy)
    : ledger(ledger_), cap(cap_config), harvest(std::move(harvest_)),
      traceIntervalCycles(energy.cyclesPerTraceInterval()),
      cacheLeakZj(joulesToZepto(cache_leakage_watts * energy.cycleTime())),
      standbyZj(joulesToZepto(nvm_standby_watts * energy.cycleTime())),
      coreLeakZj(joulesToZepto(energy.coreLeakage * energy.cycleTime())),
      leakPerRootZj(cap.leakagePowerAt(1) * energy.cycleTime() * 1e21),
      infinite(infinite_energy), nextIntervalEnd(traceIntervalCycles)
{
    refreshLeakage(cap.stored());
}

EnergyMeter::EnergyMeter(const CapacitorConfig &cap_config,
                         const EnergyModel &energy,
                         Watts cache_leakage_watts,
                         Watts nvm_standby_watts,
                         std::shared_ptr<const PowerTrace> trace,
                         EnergyLedger &ledger_, bool infinite_energy)
    : EnergyMeter(cap_config, energy, cache_leakage_watts,
                  nvm_standby_watts,
                  std::make_shared<const HarvestTable>(
                      *trace, energy.traceInterval),
                  ledger_, infinite_energy)
{
}

void
EnergyMeter::harvestClosedIntervals()
{
    // The level stays in a local across the loop: the stores to the
    // counters could alias it.
    ZeptoJoules stored = cap.stored();
    while (nextIntervalEnd <= wallCycles)
        stored = harvestInterval(stored);
    cap.setStored(stored);
    refreshLeakage(stored);
    checkCounterRange();
}

void
EnergyMeter::checkCounterRange() const
{
    // Every addition is nonnegative, so the counters only grow.
    // Between two checks they grow by a step's draws and the harvest
    // of the intervals it closed, far less than the 2^62 zJ of
    // headroom: none can have wrapped when one first passes the limit.
    const ZeptoJoules spent = ledger.grandTotalZj();
    if (spent >= counterLimitZj || harvestedZj >= counterLimitZj ||
        unfundedZj >= counterLimitZj)
        fatal("run energy past the 2^62 zJ (%g mJ) range of the integer "
              "ledger: spent %g mJ, harvested %g mJ, unfunded %g mJ -- "
              "run a shorter workload",
              zeptoToJoules(counterLimitZj) * 1e3,
              zeptoToJoules(spent) * 1e3, zeptoToJoules(harvestedZj) * 1e3,
              zeptoToJoules(unfundedZj) * 1e3);
}

void
EnergyMeter::rechargeUntilRestore()
{
    // One trace interval off per iteration: its harvest comes in, then
    // the capacitor's own leakage over it goes out (everything else is
    // power-gated). The level, the leakage total and the unfunded
    // part stay in locals; only the leakage needs a square root.
    const auto ivl = static_cast<ZeptoJoules>(traceIntervalCycles);
    ZeptoJoules stored = cap.stored();
    ZeptoJoules leaked = 0;
    ZeptoJoules short_of = 0;
    std::uint64_t guard = 0;
    while (stored < cap.restoreLevel()) {
        wallCycles += traceIntervalCycles;
        stored = harvestInterval(stored);
        refreshLeakage(stored);
        const ZeptoJoules leak = capLeakZj * ivl;
        leaked += leak;
        stored -= leak;
        if (stored < 0) {
            short_of -= stored;
            stored = 0;
        }
        if (++guard > 50'000'000)
            fatal("power trace '%s' cannot recharge the %g uF capacitor "
                  "to %g V -- harvest too weak for this configuration",
                  harvest->name().c_str(),
                  cap.config().capacitance * 1e6, cap.config().vRestore);
    }
    cap.setStored(stored);
    ledger.add(EnergyCategory::Others, leaked);
    unfundedZj += short_of;
    checkCounterRange();
}

} // namespace kagura
