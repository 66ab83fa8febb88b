/**
 * @file
 * In-order single-issue core model (Table I: five-stage pipeline at
 * 200 MHz). The core executes the workload's committed micro-op
 * stream: every instruction is fetched through the ICache; loads and
 * stores additionally access the DCache, blocking until the line is
 * available. Latency and event counts are reported per step so the
 * platform can meter the capacitor.
 */

#ifndef KAGURA_CORE_CORE_HH
#define KAGURA_CORE_CORE_HH

#include "cache/cache.hh"
#include "core/workload.hh"

namespace kagura
{

/** Everything one micro-op group cost. */
struct StepResult
{
    /**
     * A group of @p instructions_; a load or store when @p is_mem.
     * Setting these through a constructor (not assignments over a
     * value-initialised struct) lets the compiler zero the rest with
     * a few vector stores instead of a memset of the whole result.
     */
    StepResult(std::uint64_t instructions_, bool is_mem, bool is_store)
        : instructions(instructions_), isMem(is_mem), isStore(is_store)
    {
    }

    /** Total cycles the group occupied the pipeline. */
    Cycles cycles = 0;
    /** Committed instructions (ALU groups expand to their count). */
    std::uint64_t instructions = 0;
    /** True if the op was a load or store. */
    bool isMem = false;
    /** True if the op was a store. */
    bool isStore = false;
    /** ICache array accesses (line-buffer misses). */
    unsigned icacheArrayAccesses = 0;

    /** Instruction-cache events, summed over the group's fetches. */
    hier::EventCounts icache;
    /** Data-cache events (loads/stores only). */
    AccessOutcome dcache;
};

/** The in-order core. */
class Core
{
  public:
    /**
     * @param icache Instruction cache.
     * @param dcache Data cache.
     */
    Core(Cache &icache, Cache &dcache);

    /**
     * Execute one committed micro-op group at time @p now and report
     * its cost. The caller owns time/energy bookkeeping.
     */
    StepResult step(const MicroOp &op, Cycles now);

    /**
     * Drop the fetch line buffer (power failure or cache flush): the
     * next fetch re-accesses the ICache.
     */
    void flushFetchBuffer() { fetchBlockValid = false; }

    /** Architectural register count saved at a JIT checkpoint. */
    static constexpr unsigned architecturalRegisters = 32;

    /** Store-buffer entries saved at a JIT checkpoint. */
    static constexpr unsigned storeBufferEntries = 4;

    /** Core-owned 32-bit words persisted at every JIT checkpoint. */
    static constexpr unsigned checkpointWords =
        architecturalRegisters + storeBufferEntries;

  private:
    /**
     * Fetch through the ICache unless the line buffer already holds
     * the block (standard embedded-core line buffer: sequential
     * fetches within one block cost no array access).
     */
    void
    fetch(Addr pc, Cycles now, StepResult &result)
    {
        if (fetchBlockValid && icache.blockOf(pc) == fetchBlock) {
            // Line-buffer hit: the instruction issues without touching
            // the ICache array (one pipeline cycle, no array energy).
            ++result.cycles;
            return;
        }
        fetchFromArray(pc, now, result);
    }

    /** The line-buffer miss side of fetch(): one ICache access. */
    void fetchFromArray(Addr pc, Cycles now, StepResult &result);

    Cache &icache;
    Cache &dcache;

    /** Line buffer state. */
    bool fetchBlockValid = false;
    Addr fetchBlock = 0;
};

} // namespace kagura

#endif // KAGURA_CORE_CORE_HH
