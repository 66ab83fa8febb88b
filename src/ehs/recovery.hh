/**
 * @file
 * The recovery-model contract (docs/EHS.md): what an EHS design
 * *declares* about how it survives power failures, so the
 * PowerStateMachine can drive every design through one code path
 * instead of each design hand-rolling cache flushes.
 *
 * Three axes:
 *
 *  - CommitBoundary: where durable execution state is established
 *    (JIT checkpoint, per-store write-through, region sweep,
 *    idempotent task commit, or speculative epoch persistence).
 *  - FailureAction, per memory level: what happens to that level's
 *    volatile state when the capacitor trips (flush dirty blocks to
 *    NVM, or drop them and rely on the commit boundary).
 *  - Re-execution: EhsDesign::resumeIndex() names the op the program
 *    restarts from; noteRollback() lets the design meter the
 *    re-executed work that restart implies.
 *
 * The checkpoint *register* budget also lives behind the contract:
 * the platform enumerates every component's register words in a
 * RegisterBudget and the design picks which components it persists
 * (checkpointRegisterWords), so a new backend cannot silently
 * under-count controller state.
 */

#ifndef KAGURA_EHS_RECOVERY_HH
#define KAGURA_EHS_RECOVERY_HH

#include <algorithm>
#include <cstdint>

namespace kagura
{

struct EhsContext;

/** Where a design establishes durable commit boundaries. */
enum class CommitBoundary
{
    JitCheckpoint,    ///< NVSRAMCache: checkpoint on the voltage trip
    WriteThrough,     ///< NvMR: every store is durable as it commits
    RegionSweep,      ///< SweepCache: sweep at region boundaries
    IdempotentTask,   ///< TaskBased: Alpaca-style task commits
    SpeculativeEpoch, ///< SpecPersist: async epoch persistence
};

/** Human-readable boundary-kind name. */
const char *commitBoundaryName(CommitBoundary boundary);

/** What a power failure does to one memory level's volatile state. */
enum class FailureAction
{
    /**
     * Flush dirty blocks to NVM and invalidate
     * (tags::ResetCause::Flush -- the JIT checkpoint path).
     */
    FlushDirty,
    /**
     * Drop the level outright (tags::ResetCause::PowerLoss); the
     * commit boundary guarantees nothing dirty-only mattered.
     */
    DropVolatile,
};

/** Human-readable failure-action name. */
const char *failureActionName(FailureAction action);

/** The per-design recovery declaration the PowerStateMachine drives. */
struct RecoveryModel
{
    CommitBoundary boundary;
    /** Power-failure action for the L1 caches. */
    FailureAction l1Action;
    /** Power-failure action for the optional shared L2. */
    FailureAction l2Action;
};

/**
 * Forward progress under repeated failures, for designs that replay a
 * fixed-length unit (TaskBased tasks, SpecPersist recovery epochs):
 * the unit keeps its @p base length through the first failure without
 * a commit, then halves with each further one -- the shift capped at
 * 16, never below one instruction -- so some commit always fits in
 * whatever power cycle the capacitor can sustain.
 */
constexpr std::uint64_t
replayLength(std::uint64_t base, std::uint64_t consecutive_failures)
{
    if (consecutive_failures <= 1)
        return base;
    const std::uint64_t shift =
        std::min<std::uint64_t>(consecutive_failures - 1, 16);
    const std::uint64_t shrunk = base >> shift;
    return shrunk ? shrunk : 1;
}

/**
 * What applying the per-level failure actions moved: the flush totals
 * the design's onPowerFailure cost hook is charged for. All zero for
 * DropVolatile designs.
 */
struct FlushTotals
{
    unsigned nvmBlockWrites = 0;
    unsigned decompressions = 0;
    /** L1 writebacks the L2 absorbed in place (L2 platforms only). */
    unsigned absorbedWrites = 0;
};

/**
 * Apply @p model's per-level power-failure actions to the caches in
 * @p ctx, in the pinned order (icache, dcache, then the L2 if one
 * exists) the pre-contract designs used; the icache is never dirty,
 * so it is reset without a writeback walk. The single mutation site for
 * failure-time cache state -- the PowerStateMachine and the unit
 * tests both go through it.
 */
FlushTotals applyFailureActions(const RecoveryModel &model,
                                EhsContext &ctx);

/**
 * Per-component checkpoint register word counts (32-bit words), as
 * assembled by the platform (the Simulator). A design sums the
 * components its commit-boundary scheme actually persists in
 * EhsDesign::checkpointRegisterWords().
 */
struct RegisterBudget
{
    /** Architectural registers + store buffer (Core::checkpointWords). */
    unsigned core = 0;
    /** One GCP per compressed L1 controller (ACC). */
    unsigned l1Gcp = 0;
    /** Kagura's five registers + the 2-bit counter. */
    unsigned kagura = 0;
    /** The single L2 controller's GCP. */
    unsigned l2Gcp = 0;
    /** The L2's own Kagura register file. */
    unsigned l2Kagura = 0;
};

} // namespace kagura

#endif // KAGURA_EHS_RECOVERY_HH
