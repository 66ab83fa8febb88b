#include "sim/power_state.hh"

namespace kagura
{

PowerStateMachine::PowerStateMachine(
    const SimConfig &config, EnergyMeter &meter_, Cache &icache,
    Cache &dcache, Core &core_, EhsDesign &ehs_,
    KaguraController *kagura_, KaguraController *l2_kagura,
    SimResult &result_, const NvmParams &nvm_params,
    CompressionCosts comp_costs, bool has_compression,
    unsigned reg_words, Cache *l2_cache)
    : cfg(config), meter(meter_), core(core_), ehs(ehs_),
      storeHook(ehs_.observesStores()), commitHook(ehs_.observesCommits()),
      kagura(kagura_), l2Kagura(l2_kagura), result(result_),
      ctx{icache,     dcache,          config.energy, nvm_params,
          comp_costs, has_compression, reg_words,     l2_cache},
      compressZj(picoToZepto(comp_costs.compressEnergy)),
      compactionZj(picoToZepto(config.energy.compactionEnergy))
{
}

void
PowerStateMachine::updateRegionsActive(std::uint64_t instructions,
                                       std::uint64_t op_index)
{
    if (inRegion) {
        regionInstr += instructions;
        if (regionInstr >= cfg.ioRegionLength) {
            inRegion = false;
            regionInstr = 0;
            instrSinceRegion = 0;
        }
        return;
    }
    instrSinceRegion += instructions;
    if (instrSinceRegion < cfg.ioRegionInterval)
        return;

    // Region entry: take the extra checkpoint (registers + dirty
    // blocks of every level) so a failure inside can roll back
    // consistently.
    const EhsCost cost = ctx.persistDirty(ctx.nvm.writeLatency);
    spend(EnergyCategory::Checkpoint, cost);
    meter.chargeStaticPower(cost.cycles);
    meter.advanceWall(cost.cycles);
    result.activeCycles += cost.cycles;
    current.activeCycles += cost.cycles;

    inRegion = true;
    regionStartIndex = op_index;
    regionInstr = 0;
}

std::uint64_t
PowerStateMachine::powerCycle(std::uint64_t next_index)
{
    const std::uint64_t resume = powerFail(next_index);
    meter.rechargeUntilRestore();
    reboot();
    return resume;
}

std::uint64_t
PowerStateMachine::powerFail(std::uint64_t op_index)
{
    // Kagura first: it JIT-checkpoints its registers from the
    // pre-failure machine state.
    if (kagura)
        kagura->onPowerFailure();
    if (l2Kagura)
        l2Kagura->onPowerFailure();

    // Every failure mutates cache state through applyFailureActions
    // (ehs/recovery.cc), the single mutation site.
    std::uint64_t resume;
    if (inRegion) {
        // Inside an atomic region JIT checkpointing is disabled
        // (Section VII-A): the volatile state is simply lost and
        // execution rolls back to the region-entry checkpoint. The
        // design has nothing to persist, so it is not told.
        applyFailureActions(FailureAction::DropVolatile, ctx);
        regionInstr = 0;
        resume = regionStartIndex;
    } else {
        // A JIT design flushes every level, the others drop them; the
        // design is then charged for what moved.
        const FlushTotals totals = applyFailureActions(
            ehs.jitCheckpoints() ? FailureAction::FlushDirty
                                 : FailureAction::DropVolatile,
            ctx);
        const EhsCost cost = ehs.onPowerFailure(totals, ctx);
        spend(EnergyCategory::Checkpoint, cost);
        meter.advanceWall(cost.cycles);
        result.activeCycles += cost.cycles;
        resume = ehs.resumeIndex(op_index);
    }

    // The shadow state and fetch line buffer are volatile and die
    // with the power; the GCPs are controller registers and ride the
    // JIT checkpoint into NVFF like every other register.
    core.flushFetchBuffer();

    closeCycle();
    ++result.powerFailures;
    reExecuted += op_index - resume;
    return resume;
}

void
PowerStateMachine::reboot()
{
    const EhsCost cost = ehs.onReboot(ctx);
    spend(EnergyCategory::Checkpoint, cost);
    meter.advanceWall(cost.cycles);
    result.activeCycles += cost.cycles;

    // Kagura last: the platform is back up when it restores.
    if (kagura)
        kagura->onReboot();
    if (l2Kagura)
        l2Kagura->onReboot();
}

void
PowerStateMachine::closeCycle()
{
    result.cycles.push_back(current);
    current = PowerCycleRecord{};
}

} // namespace kagura
