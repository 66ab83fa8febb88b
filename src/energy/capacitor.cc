#include "energy/capacitor.hh"

#include "common/logging.hh"

namespace kagura
{

Capacitor::Capacitor(const CapacitorConfig &config) : cfg(config)
{
    if (cfg.capacitance <= 0.0)
        fatal("capacitance must be positive (got %g F)", cfg.capacitance);
    if (!(cfg.vMax >= cfg.vRestore && cfg.vRestore > cfg.vCheckpoint &&
          cfg.vCheckpoint > cfg.vShutdown && cfg.vShutdown >= 0.0)) {
        fatal("capacitor thresholds must satisfy "
              "vMax >= vRestore > vCheckpoint > vShutdown >= 0 "
              "(got %g/%g/%g/%g)",
              cfg.vMax, cfg.vRestore, cfg.vCheckpoint, cfg.vShutdown);
    }
    energyJ = 0.5 * cfg.capacitance * cfg.vRestore * cfg.vRestore;
}

void
Capacitor::setVoltage(double volts)
{
    kagura_assert(volts >= 0.0 && volts <= cfg.vMax + 1e-9);
    energyJ = 0.5 * cfg.capacitance * volts * volts;
}

double
Capacitor::bandEnergy(double v_hi, double v_lo) const
{
    return 0.5 * cfg.capacitance * (v_hi * v_hi - v_lo * v_lo);
}

} // namespace kagura
