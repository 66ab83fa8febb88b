#include "energy/capacitor.hh"

#include "common/logging.hh"

namespace kagura
{

Capacitor::Capacitor(const CapacitorConfig &config)
    : cfg(config), halfCapacitance(0.5 * config.capacitance),
      leakagePerRootZj(config.leakagePerFarad * config.capacitance /
                       config.vMax * std::sqrt(1e-21 / halfCapacitance))
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
    // Stored energy, harvest and draws are int64 zeptojoules: the
    // full charge must fit (9.2 mJ; Fig. 29's 470 uF at 3.3 V holds
    // 2.6 mJ). The comparison also rejects a NaN.
    const double full = halfCapacitance * cfg.vMax * cfg.vMax;
    if (!(full < 9.2e-3))
        fatal("a %g uF capacitor at %g V holds %g J, more than the "
              "9.2 mJ an int64 count of zeptojoules covers",
              cfg.capacitance * 1e6, cfg.vMax, full);
    ceilingZj = energyAt(cfg.vMax);
    restoreZj = energyAt(cfg.vRestore);
    checkpointZj = energyAt(cfg.vCheckpoint);
    shutdownZj = energyAt(cfg.vShutdown);
    storedZj = restoreZj;
}

ZeptoJoules
Capacitor::energyAt(double volts) const
{
    return joulesToZepto(halfCapacitance * volts * volts);
}

void
Capacitor::setVoltage(double volts)
{
    kagura_assert(volts >= 0.0 && volts <= cfg.vMax + 1e-9);
    storedZj = energyAt(volts);
}

} // namespace kagura
