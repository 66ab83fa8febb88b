/**
 * @file
 * Set-associative, write-back, write-allocate SRAM cache with optional
 * block compression (the NVSRAMCache data/instruction caches of
 * Table I).
 *
 * Compressed organisation follows ACC's decoupled design: each set
 * provides `ways x block_size` bytes of data space in 8 B segments and
 * up to `2 x ways` tags, so a fully compressed set holds twice the
 * blocks ("each cache entry can hold up to 2 compressed blocks" in the
 * paper's running example). Lines keep their uncompressed contents for
 * functional correctness; compression determines only the space a line
 * occupies and the energy/latency events reported to the caller.
 *
 * Storage is a single flat arena (sets x 2*ways x block_size bytes)
 * allocated once at construction; every line owns a fixed slice of it,
 * so fills, hits, writebacks and compression probes never touch the
 * heap (see docs/ARCHITECTURE.md).
 *
 * The cache is policy-free: a CompressionGovernor (ACC, Kagura, or a
 * fixed governor) decides *whether* to compress; the cache reports
 * every energy-relevant event through AccessOutcome so the platform
 * can meter the capacitor.
 */

#ifndef KAGURA_CACHE_CACHE_HH
#define KAGURA_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "cache/decay.hh"
#include "common/block.hh"
#include "cache/governor.hh"
#include "cache/prefetcher.hh"
#include "cache/shadow_tags.hh"
#include "common/types.hh"
#include "compress/compressor.hh"
#include "hier/mem_level.hh"
#include "metrics/fwd.hh"
#include "repl/policy.hh"
#include "tags/layout.hh"

namespace kagura
{

/** Geometry of one cache (Table I: 256 B, 2-way, 32 B blocks). */
struct CacheConfig
{
    unsigned sizeBytes = 256;
    unsigned ways = 2;
    unsigned blockSize = 32;
    /** Allocation granule of the compressed data space. */
    unsigned segmentBytes = 8;
    /** Victim selection policy (src/repl). */
    ReplKind replacement = ReplKind::Lru;
    /** Tag organization (src/tags). */
    TagLayoutKind tagLayout = TagLayoutKind::Baseline;
    /**
     * Signature width in bits (signature tag layout only): narrower
     * signatures spend less tag area but re-check (and falsely match)
     * more often. 6 is Touche's sweet spot and the historical
     * hard-coded value.
     */
    unsigned sigBits = 6;

    /** Number of sets implied by the geometry. */
    unsigned
    sets() const
    {
        return sizeBytes / (ways * blockSize);
    }
};

/** Everything energy/latency-relevant that one access caused. */
struct AccessOutcome
{
    bool hit = false;
    /** The hit target was stored compressed (decompression on path). */
    bool hitCompressed = false;
    unsigned nvmBlockReads = 0;
    unsigned nvmBlockWrites = 0;
    unsigned compressions = 0;
    /** Compressions that actually stored a smaller block (data-array
     *  segment rewrite -- the costlier event). */
    unsigned compactions = 0;
    unsigned decompressions = 0;
    unsigned evictions = 0;
    /** Block operations this access caused at the next *cache* level
     *  (0 when the next level is the NVM terminal). */
    unsigned nextLevelAccesses = 0;
    Cycles latency = 0;
};

/** What a checkpoint flush cost. */
struct FlushOutcome
{
    unsigned dirtyBlocks = 0;
    /** Writes that reached the NVM terminal (== dirtyBlocks when the
     *  next level is the NVM itself). */
    unsigned nvmBlockWrites = 0;
    unsigned decompressions = 0;
    /** Writebacks absorbed by an intermediate cache level (hit and
     *  updated in place; they cost an SRAM write, not an NVM one). */
    unsigned absorbedWrites = 0;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t compressions = 0;
    std::uint64_t compactions = 0;
    std::uint64_t decompressions = 0;
    std::uint64_t compressedHits = 0;
    std::uint64_t compressionEnabledHits = 0;
    std::uint64_t wastedDecompressions = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t decayWritebacks = 0;

    /** Miss rate over all accesses (0 when idle). */
    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    /**
     * Export every counter (plus the derived miss rate) into @p set
     * under "<prefix>/..." names. Intended for a fresh per-run
     * MetricSet: counters record absolute end-of-run values.
     */
    void recordMetrics(metrics::MetricSet &set,
                       std::string_view prefix) const;
};

/** The compressed cache (itself one pluggable hierarchy level). */
class Cache : public hier::MemLevel
{
  public:
    /**
     * @param config Geometry.
     * @param next_level Backing level (the NVM terminal, or a deeper
     *                   shared cache) serving fills and writebacks.
     * @param compressor Block compressor, or nullptr for a plain cache.
     * @param governor Compression policy; nullptr compresses never.
     */
    Cache(const CacheConfig &config, hier::MemLevel &next_level,
          const Compressor *compressor = nullptr,
          CompressionGovernor *governor = nullptr);

    /**
     * Perform one access.
     *
     * @param addr Byte address; [addr, addr+size) must not cross a
     *             block boundary.
     * @param is_write True for stores.
     * @param data Store data (writes) or destination (reads, may be
     *             nullptr to skip the copy).
     * @param size Access size in bytes (1..8).
     * @param now Current cycle (LRU timestamps, decay).
     */
    AccessOutcome access(Addr addr, bool is_write, std::uint8_t *data,
                         unsigned size, Cycles now);

    /**
     * Fill @p addr without a demand access (prefetch); no-op if
     * already resident. Reported events mirror a demand fill.
     */
    AccessOutcome prefetchFill(Addr addr, Cycles now);

    /** Write back every dirty line and invalidate (JIT checkpoint). */
    FlushOutcome flushAndInvalidate();

    /** Invalidate without writeback (tests; write-through designs). */
    void invalidateAll();

    /**
     * Write back every dirty line but keep contents valid (used by
     * sweeping/persisting EHS designs at region boundaries).
     */
    FlushOutcome cleanAll();

    /**
     * Persist the block containing @p addr to NVM (if resident and
     * dirty) and mark it clean; used by store-through EHS designs.
     * @return true if a writeback happened.
     */
    bool writebackBlock(Addr addr);

    /** Is the block containing @p addr resident? */
    bool contains(Addr addr) const;

    /** Is the block containing @p addr resident and compressed? */
    bool containsCompressed(Addr addr) const;

    /** Number of valid lines overall. */
    unsigned validLines() const;

    /** Number of dirty lines overall. */
    unsigned dirtyLines() const;

    /** Statistics so far. */
    const CacheStats &stats() const { return stat; }

    /** Zero the statistics (per-phase measurements). */
    void resetStats() { stat = CacheStats{}; }

    /** Attach an EDBP-style dead block predictor (may be nullptr). */
    void setDecay(DecayController *controller) { decay = controller; }

    /** Attach an IPEX-style prefetcher (may be nullptr). */
    void setPrefetcher(Prefetcher *prefetcher) { pf = prefetcher; }

    /** Replace the governor (mode-wrapping controllers). */
    void setGovernor(CompressionGovernor *governor) { gov = governor; }

    /** The victim-selection policy driving this cache. */
    const repl::ReplacementPolicy &replPolicy() const { return *repl_; }

    /** The tag layout organising this cache's tag array. */
    const tags::TagLayout &tagLayout() const { return *tagLayout_; }

    /** The tag layout's telemetry so far. */
    const tags::TagLayoutStats &tagStats() const
    {
        return tagLayout_->stats();
    }

    /** The geometry this cache was built with. */
    const CacheConfig &config() const { return cfg; }

    /** Block number of @p addr (addr / blockSize, as a shift). */
    std::uint64_t blockOf(Addr addr) const { return addr >> blockShift; }

    // --- hier::MemLevel (serving as a shared lower level) ----------------

    /**
     * Fill path from an upper level: a whole-block read access.
     * Misses fetch through this cache's own next level and allocate
     * here (non-inclusive fill-on-read).
     */
    void fetchBlock(Addr base, MutByteSpan dst, hier::LevelEvents &ev,
                    Cycles now) override;

    /**
     * Writeback path from an upper level: a whole-block write access
     * with *no* allocation on miss -- a resident copy is updated in
     * place (write-back), a miss forwards straight to the next level,
     * so a dirty block never gains an extra volatile copy on its way
     * toward NVM (docs/HIERARCHY.md).
     */
    void absorbBlock(Addr base, ConstByteSpan src, hier::LevelEvents &ev,
                     Cycles now) override;

    const char *levelName() const override { return name_; }

    /** Rename this level for logs/metrics ("l2"; default "cache"). */
    void setLevelName(const char *name) { name_ = name; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        bool compressed = false;
        /** The line proved incompressible last time we tried. */
        bool incompressible = false;
        std::uint64_t tag = 0;
        /** Block base address (for writebacks). */
        Addr base = 0;
        /** Segment-rounded bytes of data space this line occupies. */
        unsigned occupied = 0;
        /** LRU timestamp (global access counter). */
        std::uint64_t lastUse = 0;
        /** Insertion timestamp (FIFO replacement). */
        std::uint64_t inserted = 0;
        /** Cycle of the last touch (decay). */
        Cycles lastTouch = 0;
        /** Byte offset of this line's slice of the data arena. */
        std::size_t arenaOffset = 0;
    };

    using Set = std::vector<Line>;

    unsigned setIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    Addr blockBase(Addr addr) const;

    /**
     * Find the resident line for @p addr, or nullptr. The probe goes
     * through the tag layout; layouts with an imprecise first-level
     * match report extra full-tag probes through @p rechecks (the
     * demand path charges them as latency).
     */
    Line *findLine(Addr addr, unsigned *rechecks = nullptr);
    const Line *findLine(Addr addr) const;

    /** Bytes of data space used in @p set. */
    unsigned setOccupancy(const Set &set) const;

    /** Segment-rounded footprint for a compressed size. */
    unsigned roundToSegments(std::uint64_t bytes) const;

    /** Footprint a block's data would take if compressed now. */
    unsigned compressedFootprint(ConstByteSpan data,
                                 bool &worthwhile) const;

    /** The uncompressed contents of @p line (its arena slice). */
    MutByteSpan
    lineData(Line &line)
    {
        return {arena.data() + line.arenaOffset, cfg.blockSize};
    }
    ConstByteSpan
    lineData(const Line &line) const
    {
        return {arena.data() + line.arenaOffset, cfg.blockSize};
    }

    /**
     * Make at least @p needed bytes and one tag slot available in
     * @p set: first (if @p may_compress) compress resident
     * uncompressed lines -- LRU-first for *every* policy, via
     * repl::ReplacementPolicy::compressionVictim -- then evict until
     * space and a tag slot exist, EDBP's predicted-dead lines first
     * and the configured policy's victim order within each deadness
     * class (NOT plain LRU; see docs/REPLACEMENT.md).
     * @p exclude is never touched. @p incoming_tag is the tag the
     * room is being made for (grouped layouts admit a sibling of a
     * resident superblock without spending a tag entry).
     */
    void makeRoom(Set &set, unsigned needed, bool may_compress,
                  const Line *exclude, std::uint64_t incoming_tag,
                  Cycles now, AccessOutcome &out);

    /** Evict @p line from @p set (writeback if dirty). */
    void evictLine(Set &set, Line &line, bool dead, AccessOutcome &out);

    /** Apply EDBP eager writebacks to the set being accessed. */
    void decaySweep(Set &set, Cycles now, AccessOutcome &out);

    /**
     * The access path shared by demand accesses and the MemLevel
     * entry points. @p size may be anything up to the block size (the
     * public access() restricts demand accesses to 1..8 B);
     * @p write_no_allocate makes a write miss forward the block to
     * the next level instead of filling (the absorbBlock contract).
     */
    AccessOutcome accessImpl(Addr addr, bool is_write, std::uint8_t *data,
                             unsigned size, Cycles now,
                             bool write_no_allocate);

    /** Fill @p addr into its set, returns the new line. */
    Line &fillLine(Addr addr, Cycles now, AccessOutcome &out);

    /** Write @p line's contents back to the next level. */
    void writeback(Line &line, AccessOutcome &out);

    /** Write back every valid dirty line (flush/clean paths). */
    FlushOutcome writebackAllDirty();

    /**
     * The one whole-cache reset hook: invalidate every line and reset
     * all per-set auxiliary state (shadow tags, tag layout,
     * replacement policy, governor) in a fixed order. @p cause is the
     * tag layout's flushed-vs-lost metadata accounting.
     */
    void resetAllLines(tags::ResetCause cause);

    CacheConfig cfg;
    /** log2(blockSize); validated() guarantees a power of two. */
    unsigned blockShift;
    hier::MemLevel &next;
    const Compressor *comp;
    CompressionGovernor *gov;
    DecayController *decay = nullptr;
    Prefetcher *pf = nullptr;
    const char *name_ = "cache";

    /** Tag-slot index of @p line within @p set. */
    std::size_t slotOf(const Set &set, const Line &line) const
    {
        return static_cast<std::size_t>(&line - set.data());
    }

    /** Set index of @p set within the set array. */
    unsigned indexOf(const Set &set) const
    {
        return static_cast<unsigned>(&set - setArray.data());
    }

    std::vector<Set> setArray;
    /** Block contents for every tag slot, one fixed slice per line. */
    std::vector<std::uint8_t> arena;
    /** Victim selection (per-set policy state lives inside). */
    std::unique_ptr<repl::ReplacementPolicy> repl_;
    /** Tag organization (per-set tag state lives inside). */
    std::unique_ptr<tags::TagLayout> tagLayout_;
    /** Scratch candidate list reused across makeRoom calls. */
    std::vector<repl::Candidate> candScratch;
    ShadowTags shadow;
    CacheStats stat;
    std::uint64_t useCounter = 0;
    /** Latest access cycle, for flush-path writebacks (no `now`). */
    Cycles clock = 0;
    /** Fetch latency of the most recent fillLine (demand misses add
     *  it to the critical path; prefetch fills drop it). */
    Cycles fillLat = 0;

    /**
     * Global compressibility bias: a small saturating counter of the
     * compressor's recent verdicts (+1 worthwhile / -1 not). Breaks
     * ties for blocks with no per-block rating (e.g. right after a
     * power failure cleared the shadow state). Persists as a
     * controller register.
     */
    int compressBias = 0;
};

} // namespace kagura

#endif // KAGURA_CACHE_CACHE_HH
