/**
 * @file
 * PowerStateMachine: the intermittence layer of the simulator,
 * factored out of the old monolithic Simulator. It owns the Section
 * II-A loop
 *
 *   run -> (V < V_ckpt) -> JIT checkpoint -> off -> recharge to V_rst
 *       -> restore -> run ...
 *
 * plus the Section VII-A atomic-region state and the per-power-cycle
 * records. Energy/time mechanics are delegated to the EnergyMeter;
 * persistence costs come from the EhsDesign through the machine's
 * single EhsContext (built once, the only place the context is
 * constructed).
 *
 * Call-order contract (bit-identity): on a failure the Kagura
 * controllers (L1, then L2) checkpoint *before* any cache is
 * invalidated or the EHS runs -- Kagura saves its registers from
 * pre-failure state -- and on a reboot they restore *after* the EHS
 * restore cost is paid.
 */

#ifndef KAGURA_SIM_POWER_STATE_HH
#define KAGURA_SIM_POWER_STATE_HH

#include <cstdint>

#include "core/core.hh"
#include "ehs/ehs.hh"
#include "energy/meter.hh"
#include "kagura/kagura.hh"
#include "sim/sim_config.hh"
#include "sim/sim_result.hh"

namespace kagura
{

/** The run/checkpoint/off/recharge/restore state machine. */
class PowerStateMachine
{
  public:
    /**
     * @param config Run configuration (region + capacitor policy).
     * @param meter_ Energy/time layer.
     * @param icache / @p dcache The two caches (flush targets).
     * @param core_ The core (fetch-buffer flush on failure).
     * @param ehs_ Persistence design charged for checkpoints.
     * @param kagura_ / @p l2_kagura The L1 and L2 Kagura controllers
     *        told about failures and reboots (nullptr = none).
     * @param result_ Run result the machine's records accrue into.
     * @param nvm_params Backing NVM timing/energy parameters.
     * @param comp_costs Active compression algorithm's costs (only
     *        meaningful when @p has_compression).
     * @param has_compression Is a compressor configured?
     * @param reg_words 32-bit words persisted at each checkpoint.
     * @param l2_cache Optional shared L2 (nullptr = single level).
     */
    PowerStateMachine(const SimConfig &config, EnergyMeter &meter_,
                      Cache &icache, Cache &dcache, Core &core_,
                      EhsDesign &ehs_, KaguraController *kagura_,
                      KaguraController *l2_kagura, SimResult &result_,
                      const NvmParams &nvm_params,
                      CompressionCosts comp_costs,
                      bool has_compression, unsigned reg_words,
                      Cache *l2_cache = nullptr);

    // noteStore/noteCommit/updateRegions/recordStep run once per
    // simulated op, so the cheap paths live in the header (an extra
    // cross-TU call per op shows up in perfbench's sim_minst_per_s).

    /** A store committed: charge the design's persistence cost. */
    Cycles
    noteStore(Addr addr)
    {
        const EhsCost c = ehs.onStore(addr, ctx);
        meter.spend(EnergyCategory::Memory, c.energy);
        return c.cycles;
    }

    /**
     * @p instructions committed; @p next_index is the workload cursor
     * after the group. Region-based designs sweep here.
     */
    Cycles
    noteCommit(std::uint64_t instructions, std::uint64_t next_index)
    {
        const EhsCost c =
            ehs.onInstructionCommit(instructions, next_index, ctx);
        meter.spend(EnergyCategory::Checkpoint, c.energy);
        return c.cycles;
    }

    /** Atomic-region bookkeeping per step (Section VII-A). */
    void
    updateRegions(std::uint64_t instructions, std::uint64_t op_index)
    {
        if (cfg.ioRegionInterval == 0)
            return;
        updateRegionsActive(instructions, op_index);
    }

    /** Fold one committed step into the run/cycle counters. */
    void
    recordStep(const StepResult &sr, Cycles step_cycles)
    {
        result.activeCycles += step_cycles;
        result.committedInstructions += sr.instructions;
        current.instructions += sr.instructions;
        current.activeCycles += step_cycles;
        if (sr.isMem) {
            if (sr.isStore) {
                ++result.stores;
                ++current.stores;
            } else {
                ++result.loads;
                ++current.loads;
            }
        }
    }

    /** Has the capacitor dropped below V_ckpt while running? */
    bool failureImminent() const { return meter.failureImminent(); }

    /**
     * Execute one full failure -> off -> recharge -> restore arc.
     * @p next_index is the cursor after the step that drained the
     * buffer; returns the cursor execution resumes from.
     */
    std::uint64_t powerCycle(std::uint64_t next_index);

    /** Seal the current power-cycle record (also at end of run). */
    void closeCycle();

    /** Inside a Section VII-A atomic region? */
    bool inAtomicRegion() const { return inRegion; }

  private:
    /** Region bookkeeping when ioRegionInterval > 0 (cold path). */
    void updateRegionsActive(std::uint64_t instructions,
                             std::uint64_t op_index);

    /** JIT path on V < V_ckpt; returns the resume op index. */
    std::uint64_t powerFail(std::uint64_t op_index);

    /** Restore after recharge. */
    void reboot();

    const SimConfig &cfg;
    EnergyMeter &meter;
    Core &core;
    EhsDesign &ehs;
    KaguraController *kagura;
    KaguraController *l2Kagura;
    SimResult &result;

    EhsContext ctx;

    PowerCycleRecord current;

    // Section VII-A atomic-region state.
    bool inRegion = false;
    std::uint64_t regionStartIndex = 0;
    std::uint64_t regionInstr = 0;
    std::uint64_t instrSinceRegion = 0;
};

} // namespace kagura

#endif // KAGURA_SIM_POWER_STATE_HH
