/**
 * @file
 * The memory-hierarchy level interface: one block-granular contract
 * that both `Cache` and `Nvm` implement, so a cache's miss, writeback
 * and checkpoint-flush traffic goes to a pluggable `nextLevel` instead
 * of a hard-coded `Nvm*`. This is what lets an optional shared L2 sit
 * between the two L1s and NVM without either side knowing which it is
 * (docs/HIERARCHY.md has the full contract).
 *
 * Levels speak whole blocks: `fetchBlock` is the fill path (the upper
 * level misses and needs the block's current contents), `absorbBlock`
 * is the writeback path (the upper level evicts or flushes a dirty
 * block). Both report every energy/latency-relevant event through a
 * `LevelEvents` accumulator so the caller can merge the deeper level's
 * cost into its own outcome without knowing the level's type.
 */

#ifndef KAGURA_HIER_MEM_LEVEL_HH
#define KAGURA_HIER_MEM_LEVEL_HH

#include "common/block.hh"
#include "common/types.hh"

namespace kagura
{
namespace hier
{

/**
 * The energy-relevant event counts of a memory operation, at the level
 * that reports them and below. Every path that folds one level's
 * events into another's -- fills, writebacks, prefetches, the core's
 * per-step fetches -- uses the one merge, operator+=, so no path can
 * drop a counter.
 */
struct EventCounts
{
    unsigned nvmBlockReads = 0;
    unsigned nvmBlockWrites = 0;
    unsigned compressions = 0;
    /** Compressions that actually stored a smaller block (data-array
     *  segment rewrite -- the costlier event). */
    unsigned compactions = 0;
    unsigned decompressions = 0;
    unsigned evictions = 0;
    /** Block operations served by a *cache* level below the one that
     *  counts them (Nvm never bumps this, so it is nonzero exactly
     *  when an intermediate cache sat on the path). */
    unsigned nextLevelAccesses = 0;

    /** Add every counter of @p other. */
    EventCounts &
    operator+=(const EventCounts &other)
    {
        nvmBlockReads += other.nvmBlockReads;
        nvmBlockWrites += other.nvmBlockWrites;
        compressions += other.compressions;
        compactions += other.compactions;
        decompressions += other.decompressions;
        evictions += other.evictions;
        nextLevelAccesses += other.nextLevelAccesses;
        return *this;
    }
};

/**
 * Everything energy/latency-relevant one block operation caused at
 * this level and below. Counters accumulate: callers may reuse one
 * instance across many operations (checkpoint flush loops do). A cache
 * level serving the operation counts itself in nextLevelAccesses.
 */
struct LevelEvents : EventCounts
{
    /** Of the nextLevelAccesses, operations that hit in the cache level. */
    unsigned hits = 0;
    /** Critical-path latency of the operation (fetch only: absorbed
     *  writebacks are store-buffered and charge none). */
    Cycles latency = 0;
};

/** One level of the memory hierarchy (a cache or the NVM terminal). */
class MemLevel
{
  public:
    MemLevel() = default;
    virtual ~MemLevel();

    MemLevel(const MemLevel &) = delete;
    MemLevel &operator=(const MemLevel &) = delete;

    /**
     * Fill path: copy the current contents of the block at @p base
     * into @p dst (dst.size() is the block size), fetching from
     * deeper levels on a miss. Events (including the critical-path
     * @c latency) accumulate into @p ev.
     */
    virtual void fetchBlock(Addr base, MutByteSpan dst, LevelEvents &ev,
                            Cycles now) = 0;

    /**
     * Writeback path: absorb the dirty block at @p base. A cache
     * level updates a resident copy in place (write-back) or forwards
     * to the next level (write-no-allocate); the NVM terminal
     * persists it. No @c latency accumulates -- writebacks sit behind
     * the store buffer, matching the historical single-level
     * accounting.
     */
    virtual void absorbBlock(Addr base, ConstByteSpan src,
                             LevelEvents &ev, Cycles now) = 0;

    /** Short stable name for logs and metrics ("l2", "nvm"). */
    virtual const char *levelName() const = 0;
};

} // namespace hier
} // namespace kagura

#endif // KAGURA_HIER_MEM_LEVEL_HH
