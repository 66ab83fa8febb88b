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
      kagura(kagura_), l2Kagura(l2_kagura), result(result_),
      ctx{icache,     dcache,          config.energy, nvm_params,
          comp_costs, has_compression, reg_words,     l2_cache}
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
    const EhsCost cost = ctx.persistDirty(ctx.nvm.writeLatency, 0,
                                          /*clean_icache=*/true);
    meter.spend(EnergyCategory::Checkpoint, cost.energy);
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

    if (inRegion) {
        // Inside an atomic region JIT checkpointing is disabled
        // (Section VII-A): the volatile state is simply lost and
        // execution rolls back to the region-entry checkpoint.
        ctx.icache.invalidateAll();
        ctx.dcache.invalidateAll();
        if (ctx.l2)
            ctx.l2->invalidateAll();
        core.flushFetchBuffer();
        regionInstr = 0;
        closeCycle();
        ++result.powerFailures;
        (void)op_index;
        return regionStartIndex;
    }

    // Drive the design's declared recovery model: apply its per-level
    // failure actions (flush or drop -- the single mutation site in
    // ehs/recovery.cc), then charge the design for what moved.
    const FlushTotals totals = applyFailureActions(ehs.recovery(), ctx);
    const EhsCost cost = ehs.onPowerFailure(totals, ctx);
    meter.spend(EnergyCategory::Checkpoint, cost.energy);
    meter.advanceWall(cost.cycles);
    result.activeCycles += cost.cycles;

    // The shadow state and fetch line buffer are volatile and die
    // with the power; the GCPs are controller registers and ride the
    // JIT checkpoint into NVFF like every other register.
    core.flushFetchBuffer();

    closeCycle();
    ++result.powerFailures;
    const std::uint64_t resume = ehs.resumeIndex(op_index);
    ehs.noteRollback(op_index, resume);
    return resume;
}

void
PowerStateMachine::reboot()
{
    const EhsCost cost = ehs.onReboot(ctx);
    meter.spend(EnergyCategory::Checkpoint, cost.energy);
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
