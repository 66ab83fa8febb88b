#include "ehs/nvsram.hh"

namespace kagura
{

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
