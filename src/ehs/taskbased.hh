/**
 * @file
 * TaskBased: Alpaca-shaped checkpoint-free intermittent execution.
 * The program is a chain of idempotent tasks; task-shared data written
 * during a task is privatized (copied into a private working version)
 * so the task can re-execute from scratch, and the private write-set
 * persists atomically when the task commits. A power failure flushes
 * nothing -- the caches drop and the open task simply re-executes from
 * its entry on reboot.
 *
 * Modeled costs: a 16-entry direct-mapped privatization filter decides
 * which stores pay the privatization copy (one NVM read + write at
 * buffered rates); a task commit sweeps the dirty write-set through
 * the commit machinery plus one commit record; reboot re-reads the
 * task entry descriptor (two NVM block reads).
 *
 * Forward progress: a task that dies twice in a row is split -- each
 * further consecutive failure halves the replay task length (down to
 * a single instruction), so some task always commits within whatever
 * power cycle the capacitor can sustain. A successful commit restores
 * the full task length.
 */

#ifndef KAGURA_EHS_TASKBASED_HH
#define KAGURA_EHS_TASKBASED_HH

#include <array>

#include "ehs/ehs.hh"

namespace kagura
{

/** Idempotent-task (Alpaca-shaped) EHS design. */
class TaskBasedEhs : public EhsDesign
{
  public:
    /** @param task_instructions Committed instructions per task. */
    explicit TaskBasedEhs(std::uint64_t task_instructions = 400);

    EhsKind kind() const override { return EhsKind::TaskBased; }
    const RecoveryModel &recovery() const override;
    bool hasVoltageMonitor() const override { return false; }

    unsigned
    checkpointRegisterWords(const RegisterBudget &budget) const override;

    EhsCost onStore(Addr addr, EhsContext &ctx) override;
    EhsCost onInstructionCommit(std::uint64_t count,
                                std::uint64_t op_index,
                                EhsContext &ctx) override;
    EhsCost onPowerFailure(const FlushTotals &flushed,
                           EhsContext &ctx) override;
    EhsCost onReboot(EhsContext &ctx) override;

    std::uint64_t resumeIndex(std::uint64_t failure_index) const override;
    void noteRollback(std::uint64_t failure_index,
                      std::uint64_t resume_index) override;
    void recordMetrics(metrics::MetricSet &set) const override;

    /** Tasks committed (write-sets persisted atomically). */
    std::uint64_t tasksCommitted() const { return taskCommits; }

    /** Stores that paid the privatization copy. */
    std::uint64_t privatizedStores() const { return privatizations; }

    /** Commits of split (shortened) replay tasks. */
    std::uint64_t splitCommits() const { return splits; }

    /** Ops re-executed by task rollbacks. */
    std::uint64_t reExecutedOps() const { return reExecuted; }

    /** Privatization-filter capacity (entries). */
    static constexpr std::size_t filterEntries = 16;

    /** 32-bit words in the task commit record (task id + cursor). */
    static constexpr unsigned commitRecordWords = 2;

  private:
    std::uint64_t taskSize;
    std::uint64_t sinceBoundary = 0;
    std::uint64_t boundaryIndex = 0;
    std::uint64_t taskCommits = 0;
    std::uint64_t privatizations = 0;
    std::uint64_t splits = 0;
    std::uint64_t reExecuted = 0;
    /** Failures since the last task commit (split depth). */
    std::uint64_t consecutiveFailures = 0;

    /** Direct-mapped filter of already-privatized block addresses. */
    std::array<Addr, filterEntries> filter{};
    bool filterValid[filterEntries] = {};
};

} // namespace kagura

#endif // KAGURA_EHS_TASKBASED_HH
