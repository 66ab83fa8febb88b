#include "tags/superblock.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace kagura
{
namespace tags
{

namespace
{

/// log2(blocksPerSuperblock); the grouping shift for this layout.
constexpr unsigned sbShift = 2;
static_assert(blocksPerSuperblock == 1u << sbShift,
              "superblock grouping shift out of sync");

} // namespace

SuperblockTags::SuperblockTags(const TagGeometry &geometry)
    : TagLayout(geometry, sbShift),
      entries(static_cast<std::size_t>(geometry.sets) * geometry.ways),
      slotRefs(static_cast<std::size_t>(geometry.sets) *
               geometry.slotsPerSet),
      liveSlots(geometry.sets, 0), liveEntries(geometry.sets, 0)
{
    if (!geom.ways)
        panic("SuperblockTags: geometry has zero ways");
}

std::size_t
SuperblockTags::findEntry(unsigned set, std::uint64_t sb_tag) const
{
    for (std::size_t idx = 0; idx < geom.ways; ++idx) {
        const Entry &entry = entries[entryAt(set, idx)];
        if (entry.valid && entry.sbTag == sb_tag)
            return idx;
    }
    return noEntry;
}

std::size_t
SuperblockTags::lookup(unsigned set, std::uint64_t tag,
                       unsigned *rechecks) const
{
    (void)rechecks; // shared tags are full-width: match is exact
    const std::size_t idx = findEntry(set, tag >> sbShift);
    if (idx == noEntry)
        return noSlot;
    return entries[entryAt(set, idx)]
        .slotOf[tag & ((1u << sbShift) - 1)];
}

bool
SuperblockTags::canAdmit(unsigned set, std::uint64_t tag) const
{
    if (liveSlots[set] >= geom.slotsPerSet)
        return false; // no line slot, whatever the tag side says
    if (findEntry(set, tag >> sbShift) != noEntry)
        return true; // joins the sibling entry: no tag spent
    return liveEntries[set] < geom.ways;
}

std::size_t
SuperblockTags::pickSlot(unsigned set, const Entry *neighbors) const
{
    // Neighbor-aware placement: take the free slot with the smallest
    // distance to any resident sibling; lowest index breaks ties (and
    // is the whole rule when the superblock has no residents yet).
    std::size_t best = noSlot;
    std::size_t bestDist = static_cast<std::size_t>(-1);
    for (std::size_t slot = 0; slot < geom.slotsPerSet; ++slot) {
        if (slotRefs[slotAt(set, slot)].entry != noEntry)
            continue;
        std::size_t dist = 0;
        if (neighbors) {
            dist = static_cast<std::size_t>(-1);
            for (std::size_t sib : neighbors->slotOf) {
                if (sib == noSlot)
                    continue;
                const std::size_t gap = slot > sib ? slot - sib
                                                   : sib - slot;
                if (gap < dist)
                    dist = gap;
            }
        }
        if (dist < bestDist) {
            bestDist = dist;
            best = slot;
        }
    }
    if (best == noSlot)
        panic("SuperblockTags::pickSlot: set %u has no free slot",
              set);
    return best;
}

std::size_t
SuperblockTags::allocate(unsigned set, std::uint64_t tag,
                         unsigned occupied)
{
    const std::uint64_t sb_tag = tag >> sbShift;
    const unsigned block =
        static_cast<unsigned>(tag & ((1u << sbShift) - 1));
    std::size_t idx = findEntry(set, sb_tag);
    if (idx != noEntry) {
        ++stat.tagCompactions; // fill shares a resident tag
    } else {
        for (std::size_t scan = 0; scan < geom.ways; ++scan) {
            if (!entries[entryAt(set, scan)].valid) {
                idx = scan;
                break;
            }
        }
        if (idx == noEntry)
            panic("SuperblockTags::allocate: set %u has no free tag "
                  "entry",
                  set);
        Entry &fresh = entries[entryAt(set, idx)];
        fresh.valid = true;
        fresh.sbTag = sb_tag;
        fresh.liveBlocks = 0;
        for (unsigned i = 0; i < blocksPerSuperblock; ++i) {
            fresh.slotOf[i] = noSlot;
            fresh.sizeOf[i] = 0;
        }
        ++liveEntries[set];
        ++stat.sbAllocations;
    }

    Entry &entry = entries[entryAt(set, idx)];
    if (entry.slotOf[block] != noSlot)
        panic("SuperblockTags::allocate: set %u tag %llu already "
              "resident",
              set, static_cast<unsigned long long>(tag));
    const std::size_t slot =
        pickSlot(set, entry.liveBlocks ? &entry : nullptr);
    entry.slotOf[block] = slot;
    entry.sizeOf[block] = occupied;
    ++entry.liveBlocks;
    ++stat.sbFillDegree[entry.liveBlocks - 1];

    slotRefs[slotAt(set, slot)] = {idx, block};
    ++liveSlots[set];

    ++stat.occupancySamples;
    stat.tagsLiveSum += liveEntries[set];
    stat.residentBlockSum += liveSlots[set];
    return slot;
}

void
SuperblockTags::noteResize(unsigned set, std::size_t slot,
                           unsigned occupied)
{
    const SlotRef &ref = slotRefs[slotAt(set, slot)];
    if (ref.entry == noEntry)
        panic("SuperblockTags::noteResize: set %u slot %zu not live",
              set, slot);
    entries[entryAt(set, ref.entry)].sizeOf[ref.block] = occupied;
}

void
SuperblockTags::noteEviction(unsigned set, std::size_t slot)
{
    SlotRef &ref = slotRefs[slotAt(set, slot)];
    if (ref.entry == noEntry)
        panic("SuperblockTags::noteEviction: set %u slot %zu not live",
              set, slot);
    Entry &entry = entries[entryAt(set, ref.entry)];
    entry.slotOf[ref.block] = noSlot;
    entry.sizeOf[ref.block] = 0;
    if (!entry.liveBlocks)
        panic("SuperblockTags::noteEviction: entry underflow");
    if (--entry.liveBlocks == 0) {
        entry.valid = false;
        --liveEntries[set];
    }
    ref = SlotRef{};
    --liveSlots[set];
}

void
SuperblockTags::reset(ResetCause cause)
{
    std::uint64_t live = 0;
    for (const Entry &entry : entries)
        live += entry.valid ? 1 : 0;
    (cause == ResetCause::Flush ? stat.metadataFlushes
                                : stat.metadataLosses) += live;
    for (Entry &entry : entries)
        entry = Entry{};
    for (SlotRef &ref : slotRefs)
        ref = SlotRef{};
    for (unsigned &count : liveSlots)
        count = 0;
    for (unsigned &count : liveEntries)
        count = 0;
}

unsigned
SuperblockTags::coResidents(unsigned set, std::size_t slot) const
{
    const SlotRef &ref = slotRefs[slotAt(set, slot)];
    if (ref.entry == noEntry)
        panic("SuperblockTags::coResidents: set %u slot %zu not live",
              set, slot);
    return entries[entryAt(set, ref.entry)].liveBlocks;
}

void
SuperblockTags::selfCheck() const
{
    for (unsigned set = 0; set < geom.sets; ++set) {
        unsigned entriesLive = 0;
        unsigned blocksLive = 0;
        for (std::size_t idx = 0; idx < geom.ways; ++idx) {
            const Entry &entry = entries[entryAt(set, idx)];
            if (!entry.valid) {
                if (entry.liveBlocks)
                    panic("SuperblockTags: invalid entry with live "
                          "blocks (set %u)",
                          set);
                continue;
            }
            ++entriesLive;
            // One tag per superblock: no other valid entry may carry
            // the same superblock tag.
            for (std::size_t other = idx + 1; other < geom.ways;
                 ++other) {
                const Entry &rhs = entries[entryAt(set, other)];
                if (rhs.valid && rhs.sbTag == entry.sbTag)
                    panic("SuperblockTags: duplicate superblock tag "
                          "%llu in set %u",
                          static_cast<unsigned long long>(entry.sbTag),
                          set);
            }
            unsigned live = 0;
            unsigned sizeSum = 0;
            for (unsigned block = 0; block < blocksPerSuperblock;
                 ++block) {
                const std::size_t slot = entry.slotOf[block];
                if (slot == noSlot) {
                    if (entry.sizeOf[block])
                        panic("SuperblockTags: absent block with "
                              "nonzero size (set %u)",
                              set);
                    continue;
                }
                ++live;
                const unsigned size = entry.sizeOf[block];
                if (!size || size > geom.blockSize)
                    panic("SuperblockTags: block size %u out of "
                          "(0, %u] (set %u)",
                          size, geom.blockSize, set);
                sizeSum += size;
                const SlotRef &ref = slotRefs[slotAt(set, slot)];
                if (ref.entry != idx || ref.block != block)
                    panic("SuperblockTags: reverse map mismatch (set "
                          "%u slot %zu)",
                          set, slot);
            }
            if (live != entry.liveBlocks)
                panic("SuperblockTags: entry live count %u != %u "
                      "(set %u)",
                      live, entry.liveBlocks, set);
            if (!live)
                panic("SuperblockTags: valid entry with no blocks "
                      "(set %u)",
                      set);
            // Per-block size fields must fit the superblock's share
            // of the arena.
            if (sizeSum > blocksPerSuperblock * geom.blockSize)
                panic("SuperblockTags: entry size sum %u overflows "
                      "arena share (set %u)",
                      sizeSum, set);
            blocksLive += live;
        }
        for (std::size_t slot = 0; slot < geom.slotsPerSet; ++slot) {
            const SlotRef &ref = slotRefs[slotAt(set, slot)];
            if (ref.entry == noEntry)
                continue;
            const Entry &entry = entries[entryAt(set, ref.entry)];
            if (!entry.valid || entry.slotOf[ref.block] != slot)
                panic("SuperblockTags: dangling slot ref (set %u "
                      "slot %zu)",
                      set, slot);
        }
        if (entriesLive != liveEntries[set] ||
            blocksLive != liveSlots[set])
            panic("SuperblockTags: set %u counts drifted (%u/%u "
                  "entries, %u/%u blocks)",
                  set, entriesLive, liveEntries[set], blocksLive,
                  liveSlots[set]);
    }
}

} // namespace tags
} // namespace kagura
