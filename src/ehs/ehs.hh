/**
 * @file
 * EHS design abstraction: how a platform persists state across power
 * failures. Three designs from the paper's Section VIII-H1:
 *
 *  - NVSRAMCache [63]: JIT checkpointing -- on the voltage monitor's
 *    trip, dirty cache blocks are flushed to NVM and the register file
 *    and store buffer are saved to NVFFs; the cache reboots empty.
 *  - NvMR [24]: store-through renaming -- every store persists to NVM
 *    through a map table (with a small map-table cache and a merge
 *    buffer), so power failure needs no cache flush.
 *  - SweepCache [184]: region-based -- dirty blocks are swept to NVM
 *    through a persist buffer at region boundaries; a power failure
 *    rolls execution back to the last boundary and re-executes.
 *
 * Plus two checkpoint-free recovery models from the related work
 * (docs/EHS.md):
 *
 *  - TaskBased (Alpaca-shaped): execution is a chain of idempotent
 *    tasks; task-shared data is privatized during the task and the
 *    write-set persists atomically at task commit. A power failure
 *    flushes nothing -- the open task simply re-executes.
 *  - SpecPersist (compiler-directed speculative persistence): the
 *    write-set of each epoch persists asynchronously while the next
 *    epoch runs speculatively; a power failure squashes the
 *    speculative work and rolls back to the last fully-persisted
 *    epoch.
 *
 * A design declares one fact about power failures -- whether it
 * JIT-checkpoints (ehs/recovery.hh) -- and the PowerStateMachine
 * applies the matching failure action itself. The simulator drives
 * the hooks below; every cost is returned as cycles + picojoules so
 * the capacitor can be metered uniformly.
 */

#ifndef KAGURA_EHS_EHS_HH
#define KAGURA_EHS_EHS_HH

#include <cstdint>
#include <memory>

#include "cache/cache.hh"
#include "common/spelling.hh"
#include "common/types.hh"
#include "ehs/recovery.hh"
#include "energy/energy_model.hh"

namespace kagura
{

/** Which EHS design is in force (Fig. 19). */
enum class EhsKind
{
    NvsramCache, ///< default baseline
    NvMR,
    SweepCache,
    TaskBased,   ///< Alpaca-shaped idempotent tasks
    SpecPersist, ///< speculative epoch persistence
};

/** Design names, in enum order; "nvsram" is a CLI alias. */
inline constexpr EnumName<EhsKind> ehsKindNames[] = {
    {EhsKind::NvsramCache, "NVSRAMCache", "nvsram"},
    {EhsKind::NvMR, "NvMR"},
    {EhsKind::SweepCache, "SweepCache"},
    {EhsKind::TaskBased, "TaskBased"},
    {EhsKind::SpecPersist, "SpecPersist"},
};

inline const char *
ehsKindName(EhsKind kind)
{
    return enumName<ehsKindNames>(kind);
}

/** Cost of one EHS action. */
struct EhsCost
{
    Cycles cycles = 0;
    PicoJoules energy = 0;
    unsigned nvmBlockWrites = 0;
    unsigned decompressions = 0;
};

/** Context handed to every hook. */
struct EhsContext
{
    Cache &icache;
    Cache &dcache;
    const EnergyModel &energy;
    const NvmParams &nvm;
    /**
     * Compression costs of the active algorithm. Held by value so the
     * context never dangles or aliases simulator-owned storage; only
     * meaningful while hasCompression is true.
     */
    CompressionCosts compression{};
    bool hasCompression = false;
    /** 32-bit words of core + controller state saved at checkpoints. */
    unsigned regWords = 0;

    /**
     * Optional shared L2 between the L1s and NVM (docs/HIERARCHY.md),
     * or nullptr for the single-level platform. Its dirty state is
     * volatile like the L1s': NVSRAMCache flushes it at the JIT
     * checkpoint (ResetCause::Flush), NvMR writes through it, and
     * SweepCache sweeps it at region boundaries; NvMR and SweepCache
     * drop it at power failure (ResetCause::PowerLoss).
     */
    Cache *l2 = nullptr;

    /**
     * Cost of a checkpoint that persists @p nvm_block_writes dirty
     * blocks (each at @p per_write_latency cycles -- full NVM write
     * latency for serial JIT flushes, half of it for designs whose
     * persist buffer pipelines the writes), decompresses
     * @p decompressions blocks on the way out, and saves the regWords
     * register file + controller state to NVFFs at one word per
     * cycle. The one formula the JIT (NVSRAMCache), region-entry, and
     * sweep checkpoint paths all share -- they must never drift.
     */
    EhsCost checkpointCost(unsigned nvm_block_writes,
                           unsigned decompressions,
                           Cycles per_write_latency) const;

    /**
     * checkpointCost() of @p moved plus, with an L2, one cycle and one
     * L2 array access of energy per L1 writeback the L2 absorbed in
     * place (an SRAM write instead of an NVM one).
     */
    EhsCost persistCost(const FlushTotals &moved,
                        Cycles per_write_latency) const;

    /**
     * The commit-boundary persist (region sweep, task commit, epoch
     * drain, atomic-region entry): clean the dcache, then the L2 if
     * there is one (the icache is never dirty), and return
     * persistCost() of what moved plus @p extra_writes NVM block
     * writes (a commit record). The returned nvmBlockWrites counts
     * the extra writes too.
     */
    EhsCost persistDirty(Cycles per_write_latency,
                         unsigned extra_writes = 0);
};

/** Abstract EHS persistence design. */
class EhsDesign
{
  public:
    virtual ~EhsDesign() = default;

    /**
     * Does the design JIT-checkpoint when the voltage monitor trips?
     * If so, a power failure flushes every volatile level
     * (FailureAction::FlushDirty); otherwise it drops them and
     * execution resumes from resumeIndex(). The PowerStateMachine
     * applies the action itself (applyFailureActions) and hands the
     * resulting FlushTotals to onPowerFailure -- designs never touch
     * cache state on the failure path. The monitor is what trips the
     * checkpoint, so a JIT design already pays for one; the others
     * incur the extended-monitor overhead when Kagura's voltage
     * trigger is selected (Section VIII-H2).
     */
    virtual bool jitCheckpoints() const { return false; }

    /**
     * Does the design override onStore() / onInstructionCommit()? The
     * PowerStateMachine calls a per-op hook only when its predicate
     * holds, so a design that persists nothing per store or per
     * commit costs no indirect call per simulated op.
     */
    virtual bool observesStores() const { return false; }
    virtual bool observesCommits() const { return false; }

    /**
     * 32-bit words of core + controller state this design persists at
     * its commit boundaries, selected from the platform-assembled
     * per-component budget. The default persists everything (the JIT
     * NVFF checkpoint); checkpoint-free designs override to pick only
     * the components their commit record actually carries. Querying
     * the budget through the contract (instead of summing at the
     * construction site) is what keeps a new backend from silently
     * under-counting a component it never heard of.
     */
    virtual unsigned
    checkpointRegisterWords(const RegisterBudget &budget) const
    {
        return budget.core + budget.l1Gcp + budget.kagura +
               budget.l2Gcp + budget.l2Kagura;
    }

    /**
     * A store committed to @p addr; returns the persistence cost.
     * Called only when observesStores().
     */
    virtual EhsCost
    onStore(Addr addr, EhsContext &ctx)
    {
        (void)addr;
        (void)ctx;
        return {};
    }

    /**
     * @p count instructions committed (called once per micro-op
     * group, when observesCommits()); region-based designs sweep
     * here. @p op_index is the workload cursor *after* the group.
     */
    virtual EhsCost
    onInstructionCommit(std::uint64_t count, std::uint64_t op_index,
                        EhsContext &ctx)
    {
        (void)count;
        (void)op_index;
        (void)ctx;
        return {};
    }

    /**
     * Power failure outside an atomic region: the failure action
     * jitCheckpoints() selects has already been applied; @p flushed
     * is what it moved. Persist whatever else must survive and
     * return the cost.
     */
    virtual EhsCost onPowerFailure(const FlushTotals &flushed,
                                   EhsContext &ctx) = 0;

    /** Reboot: restore state; returns the cost. */
    virtual EhsCost onReboot(EhsContext &ctx) = 0;

    /**
     * Where execution resumes after a reboot: @p failure_index for
     * JIT designs, the last commit boundary for rollback designs.
     * The machine counts the ops in between as re-executed.
     */
    virtual std::uint64_t
    resumeIndex(std::uint64_t failure_index) const
    {
        return failure_index;
    }

    /**
     * Per-model recovery telemetry (the sim/ehs/... counters): tasks
     * committed, speculative squashes, region sweeps. Designs emit
     * only counters that moved, so designs without recovery activity
     * add no records.
     */
    virtual void
    recordMetrics(metrics::MetricSet &set) const
    {
        (void)set;
    }
};

/** Build a design instance. */
std::unique_ptr<EhsDesign> makeEhs(EhsKind kind);

} // namespace kagura

#endif // KAGURA_EHS_EHS_HH
