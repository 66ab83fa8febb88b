#include "ehs/recovery.hh"

#include "ehs/ehs.hh"

namespace kagura
{

FlushTotals
applyFailureActions(FailureAction action, EhsContext &ctx)
{
    // Level order is part of the contract: the L1 flushes run before
    // the L2's so their writebacks can land in (and dirty) the shared
    // level, exactly as the pre-contract NVSRAMCache path did --
    // reordering would change cache state and break the goldens.
    // Nothing writes through the icache, so it never holds a dirty
    // line (pinned by a test): it is reset without a writeback walk,
    // its tag metadata counted as flushed or lost per the action.
    FlushTotals totals;
    if (action == FailureAction::DropVolatile) {
        ctx.icache.invalidateAll(tags::ResetCause::PowerLoss);
        ctx.dcache.invalidateAll(tags::ResetCause::PowerLoss);
        if (ctx.l2)
            ctx.l2->invalidateAll(tags::ResetCause::PowerLoss);
        return totals;
    }
    ctx.icache.invalidateAll(tags::ResetCause::Flush);
    totals.add(ctx.dcache.flushAndInvalidate());
    if (ctx.l2)
        totals.add(ctx.l2->flushAndInvalidate());
    return totals;
}

} // namespace kagura
