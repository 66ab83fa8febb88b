#include "ehs/sweepcache.hh"

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace kagura
{

SweepEhs::SweepEhs(std::uint64_t region_instructions)
    : regionSize(region_instructions)
{
    if (regionSize == 0)
        fatal("SweepCache region size must be nonzero");
}

EhsCost
SweepEhs::onInstructionCommit(std::uint64_t count, std::uint64_t op_index,
                              EhsContext &ctx)
{
    sinceBoundary += count;
    if (sinceBoundary < regionSize)
        return {};

    // Region boundary: checkpoint registers, then sweep dirty blocks
    // through the persist buffer (its 32 entries pipeline the writes,
    // hiding roughly half of each write's latency). With an L2 the
    // sweep covers its dirty set too -- a rollback past the boundary
    // would otherwise lose blocks parked in the shared volatile level.
    sinceBoundary = 0;
    boundaryIndex = op_index;
    ++sweepCount;
    return ctx.persistDirty(ctx.nvm.writeLatency / 2);
}

const RecoveryModel &
SweepEhs::recovery() const
{
    // Everything since the boundary is simply lost on a failure; all
    // volatile levels drop (ResetCause::PowerLoss) and execution
    // rolls back to the swept boundary.
    static constexpr RecoveryModel model{CommitBoundary::RegionSweep,
                                         FailureAction::DropVolatile,
                                         FailureAction::DropVolatile};
    return model;
}

EhsCost
SweepEhs::onPowerFailure(const FlushTotals &flushed, EhsContext &ctx)
{
    // The machine dropped the caches; nothing else to persist.
    (void)flushed;
    (void)ctx;
    return {};
}

EhsCost
SweepEhs::onReboot(EhsContext &ctx)
{
    EhsCost cost;
    cost.energy += ctx.regWords * ctx.energy.nvffRead;
    cost.energy += ctx.energy.rebootEnergy;
    cost.cycles += ctx.energy.rebootLatency;
    // Execution resumes at the boundary; the re-executed instructions
    // themselves are the recovery cost (metered by the simulator).
    return cost;
}

std::uint64_t
SweepEhs::resumeIndex(std::uint64_t failure_index) const
{
    (void)failure_index;
    return boundaryIndex;
}

void
SweepEhs::noteRollback(std::uint64_t failure_index,
                       std::uint64_t resume_index)
{
    reExecuted += failure_index - resume_index;
}

void
SweepEhs::recordMetrics(metrics::MetricSet &set) const
{
    if (sweepCount)
        set.counter("sim/ehs/sweeps").add(sweepCount);
    if (reExecuted)
        set.counter("sim/ehs/reexecuted_ops").add(reExecuted);
}

} // namespace kagura
