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
 * proportional to capacitance (Table III sweep). Stored energy is an
 * integer count of zeptojoules (common/types.hh).
 */

#ifndef KAGURA_ENERGY_CAPACITOR_HH
#define KAGURA_ENERGY_CAPACITOR_HH

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
     * [vCheckpoint, vRestore] band (~35 nJ at 4.7 uF) is the budget
     * of one power cycle: an app's mean cycle commits 233-1,619
     * instructions (fig14_cycle_length_dist), not Fig. 14's thousands.
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

/**
 * The capacitor itself: the stored energy, in integer zeptojoules,
 * with voltage views. It only holds the level; the EnergyMeter moves
 * energy in and out of it (and counts what the clamps at empty and
 * full turn away).
 */
class Capacitor
{
  public:
    explicit Capacitor(const CapacitorConfig &config);

    /** Stored energy. */
    ZeptoJoules stored() const { return storedZj; }

    /** Set the stored energy. */
    void setStored(ZeptoJoules zj) { storedZj = zj; }

    /** Current voltage, sqrt(2 E / C). */
    double voltage() const { return voltageAt(storedZj); }

    /** The energy held at @p volts, C v^2 / 2, to the nearest zJ. */
    ZeptoJoules energyAt(double volts) const;

    /** The full-charge energy, energyAt(vMax): harvest above it spills. */
    ZeptoJoules ceiling() const { return ceilingZj; }

    // The power state machine polls the thresholds every step, so they
    // compare the stored energy against cut points computed once:
    // V >= v exactly when E >= energyAt(v), up to the rounding of the
    // cut point to a zeptojoule.

    /** True while voltage is at or above the restore threshold. */
    bool aboveRestore() const { return storedZj >= restoreZj; }

    /** True once voltage has fallen below the checkpoint threshold. */
    bool belowCheckpoint() const { return storedZj < checkpointZj; }

    /** True if even the checkpoint reserve is exhausted. */
    bool belowShutdown() const { return storedZj < shutdownZj; }

    /** The least stored energy at which aboveRestore() holds. */
    ZeptoJoules restoreLevel() const { return restoreZj; }

    /** Set charge to a voltage (tests; initial conditions). */
    void setVoltage(double volts);

    /** Energy between two voltages, C (v_hi^2 - v_lo^2) / 2. */
    ZeptoJoules
    bandEnergy(double v_hi, double v_lo) const
    {
        return energyAt(v_hi) - energyAt(v_lo);
    }

    /**
     * Leakage power at the current charge level. Leakage scales with
     * both capacitance and charge level; a simple I = k C V model
     * captures the Table III capacity trend.
     */
    Watts leakagePower() const { return leakagePowerAt(storedZj); }

    /** leakagePower() at stored energy @p zj. */
    Watts
    leakagePowerAt(ZeptoJoules zj) const
    {
        return leakagePerRootZj * std::sqrt(static_cast<double>(zj));
    }

    /** The configuration this capacitor was built with. */
    const CapacitorConfig &config() const { return cfg; }

  private:
    /** voltage() at stored energy @p zj. */
    double
    voltageAt(ZeptoJoules zj) const
    {
        return std::sqrt(zeptoToJoules(zj) / halfCapacitance);
    }

    CapacitorConfig cfg;
    /** capacitance / 2, the voltageAt() divisor. */
    double halfCapacitance;
    /**
     * leakagePerFarad * C * V / vMax with V = sqrt(E / (C/2)), folded
     * into one factor of sqrt(E in zJ): the leakagePower() prefix.
     */
    double leakagePerRootZj;
    ZeptoJoules storedZj;
    /** energyAt() of vMax, vRestore, vCheckpoint and vShutdown. */
    ZeptoJoules ceilingZj;
    ZeptoJoules restoreZj;
    ZeptoJoules checkpointZj;
    ZeptoJoules shutdownZj;
};

} // namespace kagura

#endif // KAGURA_ENERGY_CAPACITOR_HH
