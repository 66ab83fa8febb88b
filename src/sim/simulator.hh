/**
 * @file
 * The EHS simulator, layered (see docs/ARCHITECTURE.md, "The layered
 * simulator"):
 *
 *  - EnergyMeter (src/energy/meter.hh): capacitor + harvest trace +
 *    wall clock + ledger coupling.
 *  - PowerStateMachine (src/sim/power_state.hh): the Section II-A
 *    run/checkpoint/off/recharge/restore loop, atomic regions, and
 *    power-cycle records.
 *
 * The Simulator itself is the composition root: it builds the
 * platform from a SimConfig (caches, compression chains, the Kagura
 * controllers, decay, prefetching, the EHS design), wires the layers,
 * and drives the committed micro-op stream through them. Each step
 * runs the EHS store/commit hooks, then the atomic-region update, then
 * the Kagura controllers' memory-op count, then their voltage sample
 * (L1 controller before L2 each time). Time is metered in core
 * cycles; wall time includes the recharge phases, so "speedup" across
 * configurations with identical ambient input reflects energy
 * efficiency exactly as in the paper.
 */

#ifndef KAGURA_SIM_SIMULATOR_HH
#define KAGURA_SIM_SIMULATOR_HH

#include <memory>

#include "cache/chain.hh"
#include "cache/decay.hh"
#include "cache/prefetcher.hh"
#include "core/core.hh"
#include "ehs/ehs.hh"
#include "energy/meter.hh"
#include "kagura/kagura.hh"
#include "mem/nvm.hh"
#include "metrics/fwd.hh"
#include "sim/power_state.hh"
#include "sim/sim_config.hh"
#include "sim/sim_result.hh"

namespace kagura
{

/** One-shot simulator (construct, run once). */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &config);
    ~Simulator();

    /** Execute the workload to completion and return the results. */
    SimResult run();

    /** The backing NVM (post-run functional checks in tests). */
    const Nvm &nvm() const { return *mem; }

    /** The data cache (post-run inspection in tests). */
    const Cache &dcache() const { return *dCache; }

    /** The shared L2, when configured (null = single-level). */
    const Cache *l2cache() const { return l2Cache.get(); }

    /**
     * Per-run telemetry, populated at the end of run(): counters and
     * gauges mirroring the SimResult plus wall-clock timing. Purely
     * observational -- never feeds back into the simulation, so
     * results stay bit-identical whether or not anyone reads it.
     */
    const metrics::MetricSet &metricSet() const { return *mset; }

  private:
    /**
     * Fill mset at the end of run(): replacement and tag-layout
     * telemetry, the SimResult mirror, both Kagura controllers, the
     * compression stack, then the EHS design's recovery counters.
     */
    void recordMetrics();

    SimConfig cfg;

    std::unique_ptr<Nvm> mem;
    std::unique_ptr<Compressor> comp;
    std::unique_ptr<KaguraController> kaguraCtl;
    GovernorChain ichain;
    GovernorChain dchain;

    /**
     * L2's own controller/chain/array (SimConfig::enableL2 only).
     * Declared -- and therefore constructed -- before the L1s: they
     * hold it as their next level.
     */
    std::unique_ptr<KaguraController> l2KaguraCtl;
    GovernorChain l2chain;
    std::unique_ptr<Cache> l2Cache;

    std::unique_ptr<Cache> iCache;
    std::unique_ptr<Cache> dCache;
    std::unique_ptr<Core> core;

    std::unique_ptr<metrics::MetricSet> mset;

    /** Declared before the meter: the meter borrows result.ledger. */
    SimResult result;

    std::unique_ptr<EnergyMeter> meter;

    /** EDBP dead-block decay (enableDecay); the L2 decays at its own
     *  pace, on its own generation counters. */
    std::unique_ptr<DecayController> decay;
    std::unique_ptr<DecayController> l2Decay;

    /** IPEX prefetching (enablePrefetch), gated on the voltage. */
    std::unique_ptr<Prefetcher> prefetcher;

    std::unique_ptr<EhsDesign> ehs;

    std::unique_ptr<PowerStateMachine> psm;
};

} // namespace kagura

#endif // KAGURA_SIM_SIMULATOR_HH
