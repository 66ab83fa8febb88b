#include "ehs/specpersist.hh"

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace kagura
{

SpecPersistEhs::SpecPersistEhs(std::uint64_t epoch_instructions)
    : epochSize(epoch_instructions)
{
    if (epochSize == 0)
        fatal("SpecPersist epoch size must be nonzero");
}

const RecoveryModel &
SpecPersistEhs::recovery() const
{
    // Durability comes from the asynchronous epoch drain, never from
    // a failure-time flush: every volatile level drops
    // (ResetCause::PowerLoss) and execution rolls back to the last
    // fully persisted epoch boundary.
    static constexpr RecoveryModel model{
        CommitBoundary::SpeculativeEpoch, FailureAction::DropVolatile,
        FailureAction::DropVolatile};
    return model;
}

unsigned
SpecPersistEhs::checkpointRegisterWords(const RegisterBudget &budget) const
{
    // Epoch boundaries persist the full register file (the durable
    // epoch must be resumable mid-program) plus the double-buffered
    // epoch metadata.
    return budget.core + budget.l1Gcp + budget.kagura + budget.l2Gcp +
           budget.l2Kagura + epochMetadataWords;
}

EhsCost
SpecPersistEhs::onInstructionCommit(std::uint64_t count,
                                    std::uint64_t op_index,
                                    EhsContext &ctx)
{
    // Recovery mode: the first re-executed epoch keeps the full
    // length; every further squash without a durable advance halves it
    // (replayLength).
    sinceBoundary += count;
    if (sinceBoundary < replayLength(epochSize, consecutiveSquashes))
        return {};

    if (consecutiveSquashes) {
        // Recovery-mode commit: re-execution after a squash runs
        // non-speculatively, so this boundary's write-set persists
        // synchronously (full write latency, nothing left in flight)
        // and the durable point advances immediately. Speculation
        // resumes from here at the full epoch length.
        sinceBoundary = 0;
        consecutiveSquashes = 0;
        persistedIndex = op_index;
        drainingIndex = op_index;
        drainingBlocks = 0;
        ++epochCommits;
        ++syncCommits;
        return ctx.persistDirty(ctx.nvm.writeLatency);
    }

    // Epoch boundary: the previously draining write-set has finished
    // by now (the drain overlaps a whole epoch of execution), so the
    // durable point advances to it; the epoch that just ended -- the
    // shared L2's dirty share included -- starts draining.
    sinceBoundary = 0;
    persistedIndex = drainingIndex;
    drainingIndex = op_index;
    ++epochCommits;
    const EhsCost cost = ctx.persistDirty(ctx.nvm.writeLatency / 4);
    drainingBlocks = cost.nvmBlockWrites;
    return cost;
}

EhsCost
SpecPersistEhs::onPowerFailure(const FlushTotals &flushed, EhsContext &ctx)
{
    // Squash: the speculative epoch's work died with the caches, and
    // the still-draining write-set cannot be trusted mid-flight. The
    // recovery firmware scans the drain log to discard partial rows
    // (one verify read per in-flight block, at log-scan rates).
    (void)flushed;
    ++squashCount;
    ++consecutiveSquashes;

    EhsCost cost;
    cost.cycles += drainingBlocks;
    cost.energy += drainingBlocks * ctx.nvm.readEnergy / 8;
    drainingBlocks = 0;
    sinceBoundary = 0;
    drainingIndex = persistedIndex;
    return cost;
}

EhsCost
SpecPersistEhs::onReboot(EhsContext &ctx)
{
    EhsCost cost;
    cost.energy += ctx.regWords * ctx.energy.nvffRead;
    cost.energy += ctx.energy.rebootEnergy;
    // Re-read the double-buffered epoch descriptor (4 words, at
    // log-scan rates).
    cost.energy += epochMetadataWords * ctx.nvm.readEnergy / 8;
    cost.cycles += ctx.regWords + ctx.energy.rebootLatency +
                   epochMetadataWords;
    return cost;
}

std::uint64_t
SpecPersistEhs::resumeIndex(std::uint64_t failure_index) const
{
    (void)failure_index;
    return persistedIndex;
}

void
SpecPersistEhs::noteRollback(std::uint64_t failure_index,
                             std::uint64_t resume_index)
{
    reExecuted += failure_index - resume_index;
}

void
SpecPersistEhs::recordMetrics(metrics::MetricSet &set) const
{
    if (epochCommits)
        set.counter("sim/ehs/epochs_committed").add(epochCommits);
    if (squashCount)
        set.counter("sim/ehs/speculative_squashes").add(squashCount);
    if (syncCommits)
        set.counter("sim/ehs/recovery_commits").add(syncCommits);
    if (reExecuted)
        set.counter("sim/ehs/reexecuted_ops").add(reExecuted);
}

} // namespace kagura
