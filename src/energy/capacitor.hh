/**
 * @file
 * Capacitor energy buffer and the voltage thresholds that govern the
 * EHS power state machine (Section II-A):
 *
 *   V >= vRestore : system (re)boots and runs.
 *   V <  vCheckpoint while running : JIT checkpoint, then power off.
 *   reserve between vCheckpoint and vShutdown funds the checkpoint.
 *
 * Energy/voltage follow E = C V^2 / 2; leakage is a small standing power
 * proportional to capacitance (Table III sweep).
 */

#ifndef KAGURA_ENERGY_CAPACITOR_HH
#define KAGURA_ENERGY_CAPACITOR_HH

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"

namespace kagura
{

/** Parameters of the energy buffer. */
struct CapacitorConfig
{
    /** Capacitance in farads (Table I default: 4.7 uF). */
    double capacitance = 4.7e-6;

    /** Maximum (fully charged) voltage. */
    double vMax = 3.3;

    /**
     * Reboot/restore threshold (Section II-A V_rst). The narrow
     * [vCheckpoint, vRestore] hysteresis band is the per-power-cycle
     * energy budget; it is calibrated so cycles run a few thousand
     * committed instructions (the Fig. 14 regime).
     */
    double vRestore = 2.503;

    /** JIT-checkpoint threshold (Section II-A V_ckpt). */
    double vCheckpoint = 2.50;

    /**
     * Hard shutdown floor; the band [vShutdown, vCheckpoint] is the
     * energy reserve that funds the checkpoint itself.
     */
    double vShutdown = 2.2;

    /**
     * Leakage power per farad of capacitance; larger capacitors leak
     * proportionally more (Table III). 4 mW/F keeps the default
     * 4.7 uF buffer in the ~0.03%-of-total-energy regime and puts a
     * millifarad buffer at several percent, matching the paper's
     * Table III trend.
     */
    double leakagePerFarad = 4e-3;
};

/** The capacitor itself: an energy integrator with voltage views. */
class Capacitor
{
  public:
    explicit Capacitor(const CapacitorConfig &config);

    // voltage/charge/discharge/leakagePower run several times per
    // simulated op (every spend() discharges), so they live in the
    // header.

    /** Current voltage, sqrt(2 E / C). */
    double voltage() const { return voltageAt(energyJ); }

    /** Stored energy in joules. */
    double storedJoules() const { return energyJ; }

    /** Add harvested energy (joules); clamps at the vMax ceiling. */
    void
    charge(double joules)
    {
        kagura_assert(joules >= 0.0);
        const double cap = 0.5 * cfg.capacitance * cfg.vMax * cfg.vMax;
        energyJ = std::min(energyJ + joules, cap);
    }

    /**
     * Draw @p joules from the buffer; the level saturates at zero
     * rather than going negative (brown-out is detected by threshold
     * comparisons, not by negative energy).
     */
    void
    discharge(double joules)
    {
        kagura_assert(joules >= 0.0);
        energyJ = std::max(energyJ - joules, 0.0);
    }

    /**
     * Leakage power at the current charge level. Leakage scales with
     * both capacitance and charge level; a simple I = k C V model
     * captures the Table III capacity trend.
     */
    Watts
    leakagePower() const
    {
        return leakagePerVolt * voltage() / cfg.vMax;
    }

    // The two thresholds the power state machine polls every step
    // compare stored energy against precomputed cut points instead of
    // taking a square root; see energyReaching().

    /** True while voltage is at or above the restore threshold. */
    bool aboveRestore() const { return energyJ >= restoreJ; }

    /** True once voltage has fallen below the checkpoint threshold. */
    bool belowCheckpoint() const { return energyJ < checkpointJ; }

    /** The least stored energy at which aboveRestore() holds. */
    double restoreJoules() const { return restoreJ; }

    /** The least stored energy at which belowCheckpoint() fails. */
    double checkpointJoules() const { return checkpointJ; }

    /** True if even the checkpoint reserve is exhausted. */
    bool belowShutdown() const { return voltage() < cfg.vShutdown; }

    /** Set charge to an exact voltage (tests; initial conditions). */
    void setVoltage(double volts);

    /** Energy between two voltages, C (v_hi^2 - v_lo^2) / 2. */
    double bandEnergy(double v_hi, double v_lo) const;

    /** The configuration this capacitor was built with. */
    const CapacitorConfig &config() const { return cfg; }

  private:
    /** voltage() at stored energy @p joules. */
    double
    voltageAt(double joules) const
    {
        return std::sqrt(2.0 * joules / cfg.capacitance);
    }

    /**
     * The least energy E >= 0 with voltageAt(E) >= @p volts. voltageAt
     * is monotone in E (x2, /C and sqrt all are), so for every stored
     * energy, voltage() >= volts exactly when energyJ >= the result:
     * the threshold predicates become one compare, bit for bit.
     */
    double energyReaching(double volts) const;

    CapacitorConfig cfg;
    double energyJ;
    /** leakagePerFarad * capacitance, the leakagePower() prefix. */
    double leakagePerVolt;
    /** energyReaching(vRestore) and energyReaching(vCheckpoint). */
    double restoreJ;
    double checkpointJ;
};

} // namespace kagura

#endif // KAGURA_ENERGY_CAPACITOR_HH
