#include "ehs/taskbased.hh"

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace kagura
{

TaskBasedEhs::TaskBasedEhs(std::uint64_t task_instructions)
    : taskSize(task_instructions)
{
    if (taskSize == 0)
        fatal("TaskBased task size must be nonzero");
}

unsigned
TaskBasedEhs::checkpointRegisterWords(const RegisterBudget &budget) const
{
    // Idempotent tasks restart from the task entry, so the commit
    // record never carries the architectural register file -- only
    // the controller state (governor GCPs, Kagura registers) plus the
    // task id and cursor.
    return budget.l1Gcp + budget.kagura + budget.l2Gcp +
           budget.l2Kagura + commitRecordWords;
}

EhsCost
TaskBasedEhs::onStore(Addr addr, EhsContext &ctx)
{
    const std::uint64_t block_num = ctx.dcache.blockOf(addr);
    const Addr block = addr & ~Addr{ctx.dcache.config().blockSize - 1};
    const std::size_t slot = block_num % filterEntries;
    if (filterValid[slot] && filter[slot] == block)
        return {};

    // First store to this block within the task: privatize it. The
    // copy reads the durable version and writes the private one, both
    // through the store buffer (quarter rates).
    filterValid[slot] = true;
    filter[slot] = block;
    ++privatizations;

    EhsCost cost;
    cost.energy += ctx.nvm.readEnergy / 4 + ctx.nvm.writeEnergy / 4;
    cost.cycles += ctx.nvm.writeLatency / 4;
    return cost;
}

EhsCost
TaskBasedEhs::onInstructionCommit(std::uint64_t count,
                                  std::uint64_t op_index,
                                  EhsContext &ctx)
{
    // A task that dies twice in a row is split (replayLength).
    sinceBoundary += count;
    if (sinceBoundary < replayLength(taskSize, consecutiveFailures))
        return {};

    // Task commit: persist the private write-set (the L2's dirty share
    // too), then publish it by writing the commit record (one extra
    // NVM block write). The next task privatizes afresh.
    sinceBoundary = 0;
    boundaryIndex = op_index;
    ++taskCommits;
    if (consecutiveFailures > 1)
        ++splits;
    consecutiveFailures = 0;
    for (std::size_t i = 0; i < filterEntries; ++i)
        filterValid[i] = false;
    return ctx.persistDirty(ctx.nvm.writeLatency, 1);
}

EhsCost
TaskBasedEhs::onPowerFailure(const FlushTotals &flushed, EhsContext &ctx)
{
    // The machine dropped the caches; the open task's private writes
    // die with them, which is exactly the idempotence contract. The
    // privatization filter is volatile too.
    (void)flushed;
    (void)ctx;
    ++consecutiveFailures;
    sinceBoundary = 0;
    for (std::size_t i = 0; i < filterEntries; ++i)
        filterValid[i] = false;
    return {};
}

EhsCost
TaskBasedEhs::onReboot(EhsContext &ctx)
{
    EhsCost cost;
    cost.energy += ctx.regWords * ctx.energy.nvffRead;
    cost.energy += ctx.energy.rebootEnergy;
    // Re-read the committed task descriptor (task id + entry cursor).
    cost.energy += 2 * ctx.nvm.readEnergy;
    cost.cycles += ctx.energy.rebootLatency + ctx.nvm.readLatency;
    return cost;
}

std::uint64_t
TaskBasedEhs::resumeIndex(std::uint64_t failure_index) const
{
    (void)failure_index;
    return boundaryIndex;
}

void
TaskBasedEhs::recordMetrics(metrics::MetricSet &set) const
{
    if (taskCommits)
        set.counter("sim/ehs/tasks_committed", taskCommits);
    if (privatizations)
        set.counter("sim/ehs/privatized_stores", privatizations);
    if (splits)
        set.counter("sim/ehs/task_splits", splits);
}

} // namespace kagura
