/**
 * @file
 * TagLayout: the per-set tag-organization interface extracted from
 * Cache's implicit one-tag-per-line scheme, the same way src/repl
 * extracted victim selection from makeRoom.
 *
 * Ownership contract: the layout owns *all* per-set tag state (which
 * tags exist, which line slots they cover, per-block size fields).
 * The Cache keeps owning line payload state (Line structs, the data
 * arena) and drives the layout through exactly these hooks:
 *
 *   lookup()       on every tag probe (hits and misses)
 *   canAdmit()     inside makeRoom's free-tag check
 *   allocate()     on fill, after makeRoom made space
 *   noteResize()   when a resident line's occupied bytes change
 *   noteEviction() when a line leaves the set
 *   reset()        on power loss / checkpoint flush (see below)
 *
 * Checkpoint/reboot semantics: tag metadata lives wherever the line
 * state lives, so it shares the line state's fate. reset(Flush) means
 * the metadata was persisted just-in-time before the cut
 * (metadataFlushes counts live entries); reset(PowerLoss) means it
 * was dropped with the power (metadataLosses). Both end with an empty
 * tag array -- the distinction is pure telemetry, letting the EHS
 * designs attribute metadata traffic.
 *
 * Salt/canonical-key rules: BaselineTags must remain bit-identical to
 * the pre-subsystem Cache (goldens + committed fixture pin it), so
 * the baseline layout is omitted from canonicalKey() and records no
 * TagLayoutStats. Changing either rule is a simulatorVersionSalt
 * bump.
 */

#ifndef KAGURA_TAGS_LAYOUT_HH
#define KAGURA_TAGS_LAYOUT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "common/types.hh"
#include "tags/kind.hh"
#include "tags/stats.hh"

namespace kagura
{
namespace tags
{

/** "No slot" return from lookup()/allocate(). */
constexpr std::size_t noSlot = static_cast<std::size_t>(-1);

/** Why the layout is being reset (telemetry only; both empty it). */
enum class ResetCause
{
    PowerLoss, ///< metadata dropped with the power (NvMR, SweepCache)
    Flush,     ///< metadata persisted by a JIT checkpoint (NVSRAM)
};

/** Immutable shape of the cache the layout organises. */
struct TagGeometry
{
    unsigned sets = 0;
    unsigned ways = 0;
    unsigned slotsPerSet = 0; ///< line slots per set (2x ways)
    unsigned blockSize = 0;
    unsigned segmentBytes = 0;
    /** Signature width in bits (SignatureTags only; 1..16). */
    unsigned sigBits = 6;
};

/**
 * One compressed-tag architecture. Concrete layouts: BaselineTags
 * (one full tag per slot), SuperblockTags (DISH-style 4-block
 * entries), SignatureTags (Touche-style short signatures).
 */
class TagLayout
{
  public:
    /**
     * @param grouping_shift log2(blocks sharing one address group):
     * 0 keeps the legacy block->set mapping bit-identical; 2 maps a
     * 4-block superblock into one set so its members can share a tag.
     */
    TagLayout(const TagGeometry &geometry, unsigned grouping_shift)
        : geom(geometry), groupShift(grouping_shift),
          groupMask((1ull << grouping_shift) - 1), split(geometry.sets)
    {
    }
    virtual ~TagLayout() = default;

    TagLayout(const TagLayout &) = delete;
    TagLayout &operator=(const TagLayout &) = delete;

    /** Which layout this is (config/telemetry plumbing). */
    virtual TagLayoutKind kind() const = 0;

    /**
     * Block-number -> set mapping. Non-virtual and inline: this is
     * the hottest address math in the simulator. For groupShift == 0
     * it reduces to the legacy `block % sets`; a power-of-two set
     * count (every Table I, sweep and L2 geometry) takes a mask.
     */
    unsigned
    setIndex(std::uint64_t block) const
    {
        return split.set(block >> groupShift);
    }

    /**
     * Block-number -> in-set tag. Bijective with setIndex (block is
     * recoverable), and equal to the legacy `block / sets` when
     * groupShift == 0. Grouped layouts keep the low groupShift bits
     * in the tag so siblings share a group id (tag >> groupShift).
     */
    std::uint64_t
    tagOf(std::uint64_t block) const
    {
        return (split.line(block >> groupShift) << groupShift) |
               (block & groupMask);
    }

    /**
     * Find the line slot holding @p tag in @p set, or noSlot. Layouts
     * with an imprecise first-level match (signatures) report the
     * extra full-tag probes through @p rechecks (may be null); the
     * caller charges them as added hit/miss latency.
     */
    virtual std::size_t lookup(unsigned set, std::uint64_t tag,
                               unsigned *rechecks) const = 0;

    /**
     * Would @p set accept a fill of @p tag right now (tag-array side
     * only -- data-arena space is the caller's problem)? makeRoom
     * evicts until this holds. Baseline: any invalid slot exists.
     */
    virtual bool canAdmit(unsigned set, std::uint64_t tag) const = 0;

    /**
     * Record the fill of @p tag occupying @p occupied bytes, and pick
     * the line slot for it. Preconditions: canAdmit() held and the
     * tag is not resident. Baseline returns the first invalid slot --
     * the exact legacy placement order.
     */
    virtual std::size_t allocate(unsigned set, std::uint64_t tag,
                                 unsigned occupied) = 0;

    /** A resident line's occupied bytes changed (recompression). */
    virtual void noteResize(unsigned set, std::size_t slot,
                            unsigned occupied) = 0;

    /** The line in @p slot left @p set (eviction or replacement). */
    virtual void noteEviction(unsigned set, std::size_t slot) = 0;

    /** Drop all tag state (whole-cache invalidation; see file doc). */
    virtual void reset(ResetCause cause) = 0;

    /**
     * How many resident blocks share @p slot's tag entry (including
     * itself). 1 for ungrouped layouts; replacement policies see this
     * as Candidate::coResident.
     */
    virtual unsigned coResidents(unsigned set,
                                 std::size_t slot) const = 0;

    /**
     * In-set id of the tag entry covering @p slot (the superblock id
     * for grouped layouts, the slot index otherwise). Equal ids mean
     * evicting one candidate changes the other's entry.
     */
    virtual std::uint64_t groupOf(unsigned set,
                                  std::size_t slot) const = 0;

    /**
     * Validate every internal invariant, panicking on violation.
     * Test-only (the property suites call it after each step).
     */
    virtual void selfCheck() const = 0;

    const TagGeometry &geometry() const { return geom; }
    const TagLayoutStats &stats() const { return stat; }

    /** Export telemetry under "<prefix>/..." (no-op when all-zero). */
    void recordMetrics(metrics::MetricSet &mset,
                       std::string_view prefix) const;

  protected:
    const TagGeometry geom;
    const unsigned groupShift;
    const std::uint64_t groupMask;
    const SetSplit split;
    /// mutable: lookup() is logically const but counts signature
    /// rechecks/false positives.
    mutable TagLayoutStats stat;
};

/** Build the layout for @p kind over @p geometry. */
std::unique_ptr<TagLayout> makeTagLayout(TagLayoutKind kind,
                                         const TagGeometry &geometry);

} // namespace tags
} // namespace kagura

#endif // KAGURA_TAGS_LAYOUT_HH
