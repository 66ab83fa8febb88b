#include "tags/baseline.hh"

#include <algorithm>

#include "common/logging.hh"

namespace kagura
{
namespace tags
{

BaselineTags::BaselineTags(const TagGeometry &geometry)
    : TagLayout(geometry, 0),
      tags(static_cast<std::size_t>(geometry.sets) * geometry.slotsPerSet,
           freeTag),
      liveCnt(geometry.sets, 0)
{
}

std::size_t
BaselineTags::lookup(unsigned set, std::uint64_t tag,
                     unsigned *rechecks) const
{
    (void)rechecks; // full tags: first-level match is exact
    // Every slot is compared, last to first, so the first match in
    // slot order comes out of a conditional move instead of a
    // data-dependent loop exit (a set holds each tag at most once).
    const std::uint64_t *row = setTags(set);
    std::size_t found = noSlot;
    for (std::size_t slot = geom.slotsPerSet; slot-- > 0;) {
        if (row[slot] == tag)
            found = slot;
    }
    return found;
}

bool
BaselineTags::canAdmit(unsigned set, std::uint64_t tag) const
{
    (void)tag; // every tag costs one slot; identity is irrelevant
    return liveCnt[set] < geom.slotsPerSet;
}

std::size_t
BaselineTags::allocate(unsigned set, std::uint64_t tag,
                       unsigned occupied)
{
    (void)occupied; // data-arena bookkeeping stays with the Cache
    // The first free slot, found like lookup()'s match.
    std::uint64_t *row = setTags(set);
    std::size_t slot = noSlot;
    for (std::size_t at = geom.slotsPerSet; at-- > 0;) {
        if (row[at] == freeTag)
            slot = at;
    }
    if (slot == noSlot)
        panic("BaselineTags::allocate: set %u has no free slot", set);
    row[slot] = tag;
    ++liveCnt[set];
    return slot;
}

void
BaselineTags::noteResize(unsigned set, std::size_t slot,
                         unsigned occupied)
{
    (void)set;
    (void)slot;
    (void)occupied; // per-slot tags carry no size fields
}

void
BaselineTags::noteEviction(unsigned set, std::size_t slot)
{
    std::uint64_t &entry = setTags(set)[slot];
    if (entry == freeTag)
        panic("BaselineTags::noteEviction: set %u slot %zu not live",
              set, slot);
    entry = freeTag;
    --liveCnt[set];
}

void
BaselineTags::reset(ResetCause cause)
{
    (void)cause; // baseline keeps TagLayoutStats all-zero by contract
    std::fill(tags.begin(), tags.end(), freeTag);
    std::fill(liveCnt.begin(), liveCnt.end(), 0u);
}

unsigned
BaselineTags::coResidents(unsigned set, std::size_t slot) const
{
    (void)set;
    (void)slot;
    return 1;
}

void
BaselineTags::selfCheck() const
{
    for (unsigned set = 0; set < geom.sets; ++set) {
        const std::uint64_t *row = setTags(set);
        unsigned live = 0;
        for (std::size_t slot = 0; slot < geom.slotsPerSet; ++slot) {
            if (row[slot] == freeTag)
                continue;
            ++live;
            for (std::size_t other = slot + 1;
                 other < geom.slotsPerSet; ++other) {
                if (row[other] == row[slot])
                    panic("BaselineTags: duplicate tag %llu in set %u",
                          static_cast<unsigned long long>(row[slot]),
                          set);
            }
        }
        if (live != liveCnt[set])
            panic("BaselineTags: set %u live count %u != cached %u",
                  set, live, liveCnt[set]);
    }
}

} // namespace tags
} // namespace kagura
