/**
 * @file
 * The recovery contract (docs/EHS.md): the one fact an EHS design
 * declares about power failures -- whether it JIT-checkpoints
 * (EhsDesign::jitCheckpoints) -- and the single place a failure
 * mutates cache state (applyFailureActions), so the PowerStateMachine
 * drives every design, and every atomic-region rollback, through one
 * code path instead of each hand-rolling cache flushes.
 *
 * Re-execution: EhsDesign::resumeIndex() names the op the program
 * restarts from, and the machine counts the ops between it and the
 * failure point (sim/ehs/reexecuted_ops).
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

#include "cache/cache.hh"

namespace kagura
{

struct EhsContext;

/** What a power failure does to the volatile cache levels. */
enum class FailureAction
{
    /**
     * Flush dirty blocks to NVM and invalidate
     * (tags::ResetCause::Flush -- the JIT checkpoint path).
     */
    FlushDirty,
    /**
     * Drop every level outright (tags::ResetCause::PowerLoss): the
     * design's commit boundary, or the atomic region's entry
     * checkpoint, guarantees nothing dirty-only mattered.
     */
    DropVolatile,
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
 * What applying a failure action moved: the flush totals the
 * design's onPowerFailure cost hook is charged for. All zero for
 * DropVolatile.
 */
struct FlushTotals
{
    unsigned nvmBlockWrites = 0;
    unsigned decompressions = 0;
    /** L1 writebacks the L2 absorbed in place (L2 platforms only). */
    unsigned absorbedWrites = 0;
    /** Recompressions the absorbed writebacks caused in the L2. */
    unsigned compressions = 0;
    unsigned compactions = 0;

    /** Add @p flush's counts. */
    void
    add(const FlushOutcome &flush)
    {
        nvmBlockWrites += flush.nvmBlockWrites;
        decompressions += flush.decompressions;
        absorbedWrites += flush.absorbedWrites;
        compressions += flush.compressions;
        compactions += flush.compactions;
    }
};

/**
 * Apply @p action to every cache level in @p ctx, in the pinned order
 * (icache, dcache, then the L2 if one exists) the pre-contract
 * designs used; the icache is never dirty, so it is reset without a
 * writeback walk. The single mutation site for failure-time cache
 * state -- the PowerStateMachine (JIT checkpoints, rollbacks and
 * atomic regions alike) and the unit tests all go through it.
 */
FlushTotals applyFailureActions(FailureAction action, EhsContext &ctx);

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
