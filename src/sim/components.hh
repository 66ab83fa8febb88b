/**
 * @file
 * The standard platform components riding the SimHooks bus. The
 * Simulator (composition root) constructs the ones its SimConfig
 * selects and attaches them in the canonical order:
 *
 *   telemetry -> kagura -> compression-stack -> decay -> prefetch
 *             -> ehs
 *
 * That order is the determinism contract (see hooks.hh): it fixes
 * both event-dispatch order and the per-run metric emission order.
 */

#ifndef KAGURA_SIM_COMPONENTS_HH
#define KAGURA_SIM_COMPONENTS_HH

#include <memory>

#include "cache/chain.hh"
#include "cache/decay.hh"
#include "cache/prefetcher.hh"
#include "compress/compressor.hh"
#include "ehs/ehs.hh"
#include "energy/meter.hh"
#include "kagura/kagura.hh"
#include "sim/hooks.hh"
#include "sim/sim_config.hh"

namespace kagura
{

/**
 * Per-run telemetry: mirrors the finished SimResult into the
 * MetricSet (counters, gauges, the Fig. 12 per-cycle histogram, the
 * optional time series, cache/ledger breakdowns). Purely
 * observational; subscribes to no events.
 */
class TelemetryComponent : public SimComponent
{
  public:
    TelemetryComponent(const SimConfig &config, const SimResult &res)
        : cfg(config), result(res)
    {
    }

    const char *name() const override { return "telemetry"; }
    void recordMetrics(metrics::MetricSet &set) override;

  private:
    const SimConfig &cfg;
    const SimResult &result;
};

/**
 * Kagura's seat on the bus: relays committed memory ops, voltage
 * samples (voltage trigger only), power failures, and reboots to the
 * core-level KaguraController.
 */
class KaguraComponent : public SimComponent
{
  public:
    /**
     * @param controller Shared core-level Kagura state.
     * @param meter_ Voltage source for the voltage trigger.
     * @param cap Capacitor thresholds the trigger compares against.
     * @param voltage_trigger Sample the voltage every step?
     * @param prefix_ Metric-name prefix. A second instance gating a
     *        different level (the L2) passes its own prefix so the
     *        two controllers' stats never collide.
     */
    KaguraComponent(KaguraController &controller,
                    const EnergyMeter &meter_,
                    const CapacitorConfig &cap, bool voltage_trigger,
                    const char *prefix_ = "sim/kagura")
        : kagura(controller), meter(meter_), capacitor(cap),
          prefix(prefix_), voltageTrigger(voltage_trigger)
    {
    }

    const char *name() const override { return "kagura"; }

    unsigned
    interests() const override
    {
        unsigned mask = simEventBit(SimEvent::MemOp) |
                        simEventBit(SimEvent::PowerFailure) |
                        simEventBit(SimEvent::Reboot);
        if (voltageTrigger)
            mask |= simEventBit(SimEvent::Step);
        return mask;
    }

    void
    onMemOp(const SimStepContext &) override
    {
        kagura.onMemOpCommit();
    }

    void
    onStep(const SimStepContext &) override
    {
        kagura.onVoltageSample(meter.voltage(), capacitor.vCheckpoint,
                               capacitor.vRestore);
    }

    void onPowerFailure() override { kagura.onPowerFailure(); }
    void onReboot() override { kagura.onReboot(); }

    void recordMetrics(metrics::MetricSet &set) override;

  private:
    KaguraController &kagura;
    const EnergyMeter &meter;
    const CapacitorConfig &capacitor;
    const char *prefix;
    bool voltageTrigger;
};

/**
 * The compression stack's telemetry seat: per-cache ACC predictors
 * and the compressor algorithm. The chains themselves are owned by
 * the Simulator (the caches consume their heads); this component
 * only reports.
 */
class CompressionStackComponent : public SimComponent
{
  public:
    /** @param l2chain_ The L2's chain, when an L2 exists (else null). */
    CompressionStackComponent(const GovernorChain &ichain_,
                              const GovernorChain &dchain_,
                              const Compressor *compressor,
                              const GovernorChain *l2chain_ = nullptr)
        : ichain(ichain_), dchain(dchain_), l2chain(l2chain_),
          comp(compressor)
    {
    }

    const char *name() const override { return "compression-stack"; }
    void recordMetrics(metrics::MetricSet &set) override;

  private:
    const GovernorChain &ichain;
    const GovernorChain &dchain;
    const GovernorChain *l2chain;
    const Compressor *comp;
};

/** EDBP dead-block decay (Fig. 20): owns and attaches the controller. */
class DecayComponent : public SimComponent
{
  public:
    /** @param l2 Optional L2; gets its own controller (independent
     *  generation counters -- the levels decay at their own pace). */
    DecayComponent(const DecayConfig &config, Cache &dcache,
                   Cache *l2 = nullptr)
        : decay(std::make_unique<DecayController>(config))
    {
        dcache.setDecay(decay.get());
        if (l2) {
            l2decay = std::make_unique<DecayController>(config);
            l2->setDecay(l2decay.get());
        }
    }

    const char *name() const override { return "decay"; }

  private:
    std::unique_ptr<DecayController> decay;
    std::unique_ptr<DecayController> l2decay;
};

/**
 * IPEX intermittence-aware prefetching (Fig. 20): owns the prefetcher
 * and its capacitor-voltage gate.
 */
class PrefetchComponent : public SimComponent
{
  public:
    PrefetchComponent(const SimConfig &config, const EnergyMeter &meter,
                      Cache &dcache);

    const char *name() const override { return "prefetch"; }

  private:
    std::unique_ptr<Prefetcher> prefetcher;
};

/**
 * The EHS persistence design's seat on the bus. The
 * PowerStateMachine drives the design directly (its hooks return
 * costs; bus events are one-way), so this component only carries
 * ownership and identity.
 */
class EhsComponent : public SimComponent
{
  public:
    explicit EhsComponent(EhsKind kind) : ehs(makeEhs(kind)) {}

    const char *name() const override { return "ehs"; }

    /** Relay the design's recovery telemetry (`sim/ehs/...`). */
    void
    recordMetrics(metrics::MetricSet &set) override
    {
        ehs->recordMetrics(set);
    }

    /** The owned design. */
    EhsDesign &design() { return *ehs; }

  private:
    std::unique_ptr<EhsDesign> ehs;
};

} // namespace kagura

#endif // KAGURA_SIM_COMPONENTS_HH
