#include "energy/capacitor.hh"

#include <bit>
#include <cstdint>
#include <limits>

#include "common/logging.hh"

namespace kagura
{

Capacitor::Capacitor(const CapacitorConfig &config)
    : cfg(config), halfCapacitance(0.5 * config.capacitance)
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
    leakagePerVolt = cfg.leakagePerFarad * cfg.capacitance;
    restoreJ = energyReaching(cfg.vRestore);
    checkpointJ = energyReaching(cfg.vCheckpoint);
}

double
Capacitor::energyReaching(double volts) const
{
    // Non-negative doubles order like their bit patterns, so bisect
    // over the patterns in [0, +inf] (voltageAt(+inf) is +inf).
    if (voltageAt(0.0) >= volts)
        return 0.0;
    std::uint64_t below = 0; // voltageAt(below) < volts
    std::uint64_t reach =
        std::bit_cast<std::uint64_t>(
            std::numeric_limits<double>::infinity()); // >= volts
    while (reach - below > 1) {
        const std::uint64_t mid = below + (reach - below) / 2;
        if (voltageAt(std::bit_cast<double>(mid)) >= volts)
            reach = mid;
        else
            below = mid;
    }
    return std::bit_cast<double>(reach);
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
