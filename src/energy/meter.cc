#include "energy/meter.hh"

#include "common/logging.hh"

namespace kagura
{

EnergyMeter::EnergyMeter(const CapacitorConfig &cap_config,
                         const EnergyModel &energy_,
                         Watts cache_leakage_watts,
                         Watts nvm_standby_watts,
                         std::shared_ptr<const PowerTrace> trace_,
                         EnergyLedger &ledger_, bool infinite_energy)
    : energy(energy_), ledger(ledger_), cap(cap_config),
      trace(std::move(trace_)), cacheLeakage(cache_leakage_watts),
      nvmStandby(nvm_standby_watts), cycleSeconds(energy_.cycleTime()),
      traceIntervalCycles(energy_.cyclesPerTraceInterval()),
      infinite(infinite_energy)
{
}

void
EnergyMeter::rechargeUntilRestore()
{
    // The level stays in a local across the loop (see
    // Capacitor::drained()).
    double stored = cap.storedJoules();
    std::uint64_t guard = 0;
    while (!(stored >= cap.restoreJoules())) {
        stored = harvestTo(stored, wallCycles + traceIntervalCycles);
        // Off-state losses: the capacitor's own leakage (everything
        // else is power-gated).
        const double leak =
            cap.leakagePowerAt(stored) * energy.traceInterval;
        stored = Capacitor::drained(stored, leak);
        ledger.add(EnergyCategory::Others, joulesToPico(leak));
        if (++guard > 50'000'000)
            fatal("power trace '%s' cannot recharge the %g uF capacitor "
                  "to %g V -- harvest too weak for this configuration",
                  trace->name().c_str(),
                  cap.config().capacitance * 1e6, cap.config().vRestore);
    }
    cap.setStoredJoules(stored);
}

} // namespace kagura
