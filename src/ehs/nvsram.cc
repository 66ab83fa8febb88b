#include "ehs/nvsram.hh"

namespace kagura
{

const RecoveryModel &
NvsramEhs::recovery() const
{
    // JIT checkpointing flushes every volatile level on the trip; the
    // metadata rides out with the data (ResetCause::Flush).
    static constexpr RecoveryModel model{
        CommitBoundary::JitCheckpoint, FailureAction::FlushDirty,
        FailureAction::FlushDirty};
    return model;
}

EhsCost
NvsramEhs::onPowerFailure(const FlushTotals &flushed, EhsContext &ctx)
{
    // The machine already flushed dirty blocks of every level to
    // their nonvolatile counterparts (compressed victims decompressed
    // on the way out, writebacks the L2 absorbed costing an SRAM
    // write each); the register file, store buffer, and controller
    // registers ride into NVFFs as part of the shared checkpoint
    // formula.
    return ctx.persistCost(flushed, ctx.nvm.writeLatency);
}

EhsCost
NvsramEhs::onReboot(EhsContext &ctx)
{
    EhsCost cost;
    cost.energy += ctx.regWords * ctx.energy.nvffRead;
    cost.energy += ctx.energy.rebootEnergy;
    cost.cycles += ctx.regWords + ctx.energy.rebootLatency;
    return cost;
}

} // namespace kagura
