#include "ehs/recovery.hh"

#include "common/logging.hh"
#include "ehs/ehs.hh"

namespace kagura
{

const char *
commitBoundaryName(CommitBoundary boundary)
{
    switch (boundary) {
      case CommitBoundary::JitCheckpoint:
        return "jit-checkpoint";
      case CommitBoundary::WriteThrough:
        return "write-through";
      case CommitBoundary::RegionSweep:
        return "region-sweep";
      case CommitBoundary::IdempotentTask:
        return "idempotent-task";
      case CommitBoundary::SpeculativeEpoch:
        return "speculative-epoch";
    }
    panic("unknown CommitBoundary %d", static_cast<int>(boundary));
}

const char *
failureActionName(FailureAction action)
{
    switch (action) {
      case FailureAction::FlushDirty:
        return "flush-dirty";
      case FailureAction::DropVolatile:
        return "drop-volatile";
    }
    panic("unknown FailureAction %d", static_cast<int>(action));
}

FlushTotals
applyFailureActions(const RecoveryModel &model, EhsContext &ctx)
{
    // Level order is part of the contract: the L1 flushes run before
    // the L2's so their writebacks can land in (and dirty) the shared
    // level, exactly as the pre-contract NVSRAMCache path did --
    // reordering would change cache state and break the goldens.
    // Nothing writes through the icache, so it never holds a dirty
    // line (pinned by a test): it is reset without a writeback walk,
    // its tag metadata counted as flushed or lost per the L1 action.
    FlushTotals totals;
    const bool flush_l1 = model.l1Action == FailureAction::FlushDirty;
    ctx.icache.invalidateAll(flush_l1 ? tags::ResetCause::Flush
                                      : tags::ResetCause::PowerLoss);
    if (flush_l1) {
        const FlushOutcome dflush = ctx.dcache.flushAndInvalidate();
        totals.nvmBlockWrites = dflush.nvmBlockWrites;
        totals.decompressions = dflush.decompressions;
        totals.absorbedWrites = dflush.absorbedWrites;
    } else {
        ctx.dcache.invalidateAll();
    }
    if (ctx.l2) {
        if (model.l2Action == FailureAction::FlushDirty) {
            const FlushOutcome l2flush = ctx.l2->flushAndInvalidate();
            totals.nvmBlockWrites += l2flush.nvmBlockWrites;
            totals.decompressions += l2flush.decompressions;
        } else {
            ctx.l2->invalidateAll();
        }
    }
    return totals;
}

} // namespace kagura
