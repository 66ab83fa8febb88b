/**
 * @file
 * SuperblockTags: DISH-shaped superblock tag entries. Four
 * address-consecutive blocks form a superblock; the layout keeps
 * `ways` tag entries per set (half the baseline's 2x-ways full tags),
 * each holding one shared superblock tag plus per-block validity and
 * size fields. A fill whose superblock already has a resident sibling
 * *compacts* into that entry (no new tag spent); otherwise it claims
 * a free entry. Tag pressure therefore shows up as: at most `ways`
 * distinct superblocks resident per set, however compressible the
 * data is.
 *
 * Grouping uses groupShift 2, so all four siblings of a superblock
 * land in the same set and the shared-tag entry is purely per-set
 * state. Placement is neighbor-aware: a joining block takes the free
 * line slot closest to its siblings' slots, keeping a superblock's
 * data clustered in the per-set arena.
 */

#ifndef KAGURA_TAGS_SUPERBLOCK_HH
#define KAGURA_TAGS_SUPERBLOCK_HH

#include <vector>

#include "tags/layout.hh"

namespace kagura
{
namespace tags
{

class SuperblockTags : public TagLayout
{
  public:
    explicit SuperblockTags(const TagGeometry &geometry);

    TagLayoutKind kind() const override
    {
        return TagLayoutKind::Superblock;
    }

    std::size_t lookup(unsigned set, std::uint64_t tag,
                       unsigned *rechecks) const override;
    bool canAdmit(unsigned set, std::uint64_t tag) const override;
    std::size_t allocate(unsigned set, std::uint64_t tag,
                         unsigned occupied) override;
    void noteResize(unsigned set, std::size_t slot,
                    unsigned occupied) override;
    void noteEviction(unsigned set, std::size_t slot) override;
    void reset(ResetCause cause) override;
    unsigned coResidents(unsigned set, std::size_t slot) const override;
    void selfCheck() const override;

  private:
    static constexpr std::size_t noEntry = static_cast<std::size_t>(-1);

    /** One shared-tag superblock entry. */
    struct Entry
    {
        bool valid = false;
        std::uint64_t sbTag = 0; ///< tag >> groupShift
        unsigned liveBlocks = 0;
        std::size_t slotOf[blocksPerSuperblock] = {noSlot, noSlot,
                                                   noSlot, noSlot};
        unsigned sizeOf[blocksPerSuperblock] = {};
    };

    /** Line slot -> owning entry/block (reverse map). */
    struct SlotRef
    {
        std::size_t entry = noEntry;
        unsigned block = 0;
    };

    std::size_t entryAt(unsigned set, std::size_t idx) const
    {
        return static_cast<std::size_t>(set) * geom.ways + idx;
    }
    std::size_t slotAt(unsigned set, std::size_t slot) const
    {
        return static_cast<std::size_t>(set) * geom.slotsPerSet + slot;
    }
    std::size_t findEntry(unsigned set, std::uint64_t sb_tag) const;
    std::size_t pickSlot(unsigned set, const Entry *neighbors) const;

    std::vector<Entry> entries;    ///< sets x ways, flattened
    std::vector<SlotRef> slotRefs; ///< sets x slotsPerSet, flattened
    std::vector<unsigned> liveSlots;   ///< resident lines per set
    std::vector<unsigned> liveEntries; ///< valid entries per set
};

} // namespace tags
} // namespace kagura

#endif // KAGURA_TAGS_SUPERBLOCK_HH
