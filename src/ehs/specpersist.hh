/**
 * @file
 * SpecPersist: compiler-directed speculative persistence. Execution is
 * cut into epochs; when an epoch ends, its write-set begins draining
 * to NVM asynchronously while the next epoch runs speculatively on
 * top of it. Only once an epoch's drain completes (modeled as: when
 * the *next* boundary arrives) does the machine's durable point
 * advance. A power failure squashes the speculative epoch and any
 * still-draining writes, rolling execution back to the last fully
 * persisted boundary -- so rollback can span up to two epochs.
 *
 * Modeled costs: the drain overlaps execution, so boundary persists
 * pay only a quarter of the NVM write latency per block; a squash
 * pays a verify scan over the in-flight drain set; reboot re-reads
 * the durable epoch descriptor.
 *
 * Forward progress: after a squash the firmware re-executes in
 * *recovery mode* -- the first boundary it reaches persists
 * synchronously (full write latency, nothing left in flight) and
 * advances the durable point immediately, so one epoch per power
 * cycle suffices instead of two. Repeated squashes without reaching
 * a boundary halve the recovery epoch length (down to a single
 * instruction), so the durable point advances under any capacitor
 * that can execute code at all. A successful commit restores the
 * full epoch length.
 */

#ifndef KAGURA_EHS_SPECPERSIST_HH
#define KAGURA_EHS_SPECPERSIST_HH

#include "ehs/ehs.hh"

namespace kagura
{

/** Speculative-epoch-persistence EHS design. */
class SpecPersistEhs : public EhsDesign
{
  public:
    /** @param epoch_instructions Committed instructions per epoch. */
    explicit SpecPersistEhs(std::uint64_t epoch_instructions = 800);

    EhsKind kind() const override { return EhsKind::SpecPersist; }
    const RecoveryModel &recovery() const override;
    bool hasVoltageMonitor() const override { return false; }

    unsigned
    checkpointRegisterWords(const RegisterBudget &budget) const override;

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

    /** Epochs whose write-sets started draining. */
    std::uint64_t epochsCommitted() const { return epochCommits; }

    /** Speculative epochs squashed by power failures. */
    std::uint64_t squashes() const { return squashCount; }

    /** Synchronous recovery-mode commits (post-squash boundaries). */
    std::uint64_t recoveryCommits() const { return syncCommits; }

    /** Ops re-executed by epoch rollbacks. */
    std::uint64_t reExecutedOps() const { return reExecuted; }

    /** 32-bit words of epoch metadata (two epoch ids + two cursors). */
    static constexpr unsigned epochMetadataWords = 4;

  private:
    std::uint64_t epochSize;
    std::uint64_t sinceBoundary = 0;
    /** Boundary of the last *fully persisted* epoch (safe resume). */
    std::uint64_t persistedIndex = 0;
    /** Boundary of the epoch whose write-set is still draining. */
    std::uint64_t drainingIndex = 0;
    /** Blocks still in flight from the draining epoch's write-set. */
    std::uint64_t drainingBlocks = 0;
    std::uint64_t epochCommits = 0;
    std::uint64_t squashCount = 0;
    std::uint64_t syncCommits = 0;
    std::uint64_t reExecuted = 0;
    /** Squashes since the last durable advance (recovery-mode depth). */
    std::uint64_t consecutiveSquashes = 0;
};

} // namespace kagura

#endif // KAGURA_EHS_SPECPERSIST_HH
