/**
 * @file
 * The replacement-policy interface: victim selection extracted from
 * Cache::makeRoom so size-aware policies can be studied under
 * intermittence (ROADMAP "size-aware replacement" axis).
 *
 * Contract (see docs/REPLACEMENT.md for the full rules):
 *
 *  - The cache owns one policy instance per Cache and calls it from a
 *    single thread. Per-set state lives inside the policy, indexed by
 *    (set, tag-slot); the cache never inspects it.
 *
 *  - victim() receives every valid, non-excluded line of the set as a
 *    Candidate, in tag-slot order, each carrying its *compressed*
 *    footprint (`occupied`, segment-rounded bytes) and the EDBP dead
 *    flag. Predicted-dead lines must be preferred over live ones --
 *    that priority belongs to the eviction rule, not to any one
 *    policy -- and deadFirstScan() encodes it for implementations.
 *
 *  - compressionVictim() picks which resident *uncompressed* line to
 *    compress when carving room. It is one fixed rule, not a policy
 *    choice: LRU-first for every policy, regardless of the eviction
 *    order (the pre-refactor makeRoom comment claimed "then evict
 *    LRU"; the code actually evicted dead-first then policy-order,
 *    which is what victim() now encodes).
 *
 *  - A policy declares the observation hooks it overrides (Hooks);
 *    the cache calls only those, so a policy that keeps no per-line
 *    state costs no indirect call per access.
 *
 *  - noteCacheCleared() fires whenever the cache is invalidated
 *    (checkpoint flush, power failure, reboot). Policies must drop
 *    all per-line prediction state there: pre-refactor behaviour kept
 *    no state beyond the line timestamps, which the invalidation
 *    already clears.
 */

#ifndef KAGURA_REPL_POLICY_HH
#define KAGURA_REPL_POLICY_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "metrics/fwd.hh"
#include "repl/kind.hh"

namespace kagura
{
namespace repl
{

/** One valid line offered to victim selection. */
struct Candidate
{
    /** Tag-slot index of this line within its set. */
    std::size_t slot = 0;
    /** Block base address. */
    Addr base = 0;
    /** LRU timestamp (global access counter at last touch). */
    std::uint64_t lastUse = 0;
    /** Insertion timestamp (FIFO order). */
    std::uint64_t inserted = 0;
    /** Segment-rounded bytes of data space the line occupies. */
    unsigned occupied = 0;
    bool compressed = false;
    bool dirty = false;
    /** EDBP predicts this line dead (preferred victim). */
    bool dead = false;
    /**
     * Resident blocks sharing this line's tag entry, itself included
     * (src/tags superblock co-residency; 1 for ungrouped layouts).
     * Evicting the last co-resident frees the shared tag entry.
     */
    unsigned coResident = 1;
};

/** Context one selection happens under. */
struct SelectContext
{
    /** Set being filled. */
    unsigned setIndex = 0;
    /** Global access counter (the deterministic randomness source). */
    std::uint64_t useCounter = 0;
};

/** Geometry a policy sizes its per-set state from. */
struct PolicyGeometry
{
    unsigned sets = 0;
    unsigned ways = 0;
    /** Tag slots per set (2x ways in the decoupled-compressed design). */
    unsigned slotsPerSet = 0;
    unsigned blockSize = 0;
    unsigned segmentBytes = 0;
};

/**
 * The observation hooks a policy overrides. The cache calls a hook
 * only when its flag is set, so a policy that leaves a flag clear
 * must not override that hook (it would never run).
 */
struct Hooks
{
    bool fill = false;     ///< noteFill
    bool touch = false;    ///< noteTouch
    bool access = false;   ///< noteAccess
    bool eviction = false; ///< noteEvicted
};

/** Attainable-upper-bound tallies (offline oracle policies only). */
struct UpperBoundStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
};

/** The victim-selection interface. */
class ReplacementPolicy
{
  public:
    explicit ReplacementPolicy(const PolicyGeometry &geometry,
                               const Hooks &hooks = Hooks{});
    virtual ~ReplacementPolicy();

    ReplacementPolicy(const ReplacementPolicy &) = delete;
    ReplacementPolicy &operator=(const ReplacementPolicy &) = delete;

    virtual ReplKind kind() const = 0;
    const char *name() const { return replacementPolicyName(kind()); }

    /**
     * Choose the eviction victim among @p n >= 1 candidates (tag-slot
     * order). Returns an index into @p cands. Within one makeRoom
     * call the context is identical across successive evictions; the
     * candidate list shrinks as victims leave.
     */
    virtual std::size_t victim(const Candidate *cands, std::size_t n,
                               const SelectContext &ctx) = 0;

    /**
     * Choose which uncompressed resident line to compress to carve
     * room (candidates pre-filtered to compressible lines, tag-slot
     * order): the least recently used, first candidate on ties. One
     * rule for every policy -- the historical makeRoom behaviour.
     */
    static std::size_t
    compressionVictim(const Candidate *cands, std::size_t n)
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (cands[i].lastUse < cands[best].lastUse)
                best = i;
        }
        return best;
    }

    /** The observation hooks this policy overrides. */
    const Hooks &hooks() const { return hooks_; }

    // --- observation hooks (defaults: no-ops; see Hooks) ----------------

    /** A line was filled into @p slot of @p set. */
    virtual void noteFill(unsigned set, std::size_t slot, Addr base,
                          unsigned occupied);

    /** A resident line was hit by a demand access. */
    virtual void noteTouch(unsigned set, std::size_t slot, bool is_write);

    /**
     * One demand access to @p set completed (hit or miss);
     * @p occupied is the accessed block's footprint in the cache.
     * Offline oracle models consume the access stream here.
     */
    virtual void noteAccess(unsigned set, Addr base, bool hit,
                            unsigned occupied);

    /**
     * The cache was invalidated wholesale (checkpoint flush / power
     * failure / reboot). Per-line policy state must reset; overrides
     * must call the base.
     */
    virtual void noteCacheCleared();

    /**
     * @p slot of @p set was evicted: count the victim in the
     * eviction/size histogram every policy reports, then call
     * noteEvicted() when the policy declares Hooks::eviction.
     */
    void noteEviction(unsigned set, std::size_t slot, unsigned occupied,
                      bool dirty, bool dead);

    /** The policy's own side of an eviction (Hooks::eviction). */
    virtual void noteEvicted(unsigned set, std::size_t slot);

    /**
     * Export per-policy eviction telemetry into @p mset under
     * "<prefix>/..." (victim-size histogram, dirty/dead victim
     * counters). Overrides add their own series and call the base.
     */
    virtual void recordMetrics(metrics::MetricSet &mset,
                               std::string_view prefix) const;

    /**
     * Offline upper-bound tallies, or nullptr for online policies.
     * The returned stats use the same access denominator as
     * CacheStats, so rates compare directly.
     */
    virtual const UpperBoundStats *upperBound() const;

    const PolicyGeometry &geometry() const { return geom; }

  protected:
    /**
     * The shared eviction scan: EDBP's predicted-dead lines are
     * preferred over live ones; within the same deadness class,
     * @p better orders candidates. @p better(cand, index, best,
     * best_index) returns true when cand should replace the current
     * best; the first candidate always seeds the scan, so "first
     * wins" ties need a strict comparison. Bit-identical to the
     * pre-refactor makeRoom loop.
     */
    template <typename Better>
    static std::size_t
    deadFirstScan(const Candidate *cands, std::size_t n, Better better)
    {
        std::size_t best = 0;
        bool best_dead = cands[0].dead;
        for (std::size_t i = 1; i < n; ++i) {
            const Candidate &cand = cands[i];
            bool wins = false;
            if (cand.dead && !best_dead)
                wins = true;
            else if (cand.dead == best_dead)
                wins = better(cand, i, cands[best], best);
            if (wins) {
                best = i;
                best_dead = cand.dead;
            }
        }
        return best;
    }

    PolicyGeometry geom;

  private:
    Hooks hooks_;
    /** Victim footprints in segments: histogram counts + extremes. */
    std::vector<std::uint64_t> victimSegments;
    std::uint64_t dirtyVictims = 0;
    std::uint64_t deadVictims = 0;
    std::uint64_t compressedVictims = 0;
};

/** Construct the policy implementing @p kind for @p geometry. */
std::unique_ptr<ReplacementPolicy> makePolicy(ReplKind kind,
                                              const PolicyGeometry &geometry);

} // namespace repl
} // namespace kagura

#endif // KAGURA_REPL_POLICY_HH
