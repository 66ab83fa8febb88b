#include "tags/signature.hh"

#include "common/logging.hh"

namespace kagura
{
namespace tags
{

SignatureTags::SignatureTags(const TagGeometry &geometry)
    : TagLayout(geometry, 0),
      entries(static_cast<std::size_t>(geometry.sets) *
              geometry.slotsPerSet),
      liveCnt(geometry.sets, 0), bits(geometry.sigBits)
{
    if (bits < 1 || bits > 16)
        panic("SignatureTags: signature width %u out of range (1..16)",
              bits);
}

std::size_t
SignatureTags::lookup(unsigned set, std::uint64_t tag,
                      unsigned *rechecks) const
{
    const std::uint16_t sig = signatureOf(tag, bits);
    for (std::size_t slot = 0; slot < geom.slotsPerSet; ++slot) {
        const Entry &entry = entries[at(set, slot)];
        if (!entry.valid || entry.sig != sig)
            continue;
        // Signature match: pay for the full-width comparison.
        ++stat.sigRechecks;
        if (rechecks)
            ++*rechecks;
        if (entry.tag == tag)
            return slot;
        ++stat.sigFalsePositives;
    }
    return noSlot;
}

bool
SignatureTags::canAdmit(unsigned set, std::uint64_t tag) const
{
    (void)tag;
    return liveCnt[set] < geom.slotsPerSet;
}

std::size_t
SignatureTags::allocate(unsigned set, std::uint64_t tag,
                        unsigned occupied)
{
    (void)occupied;
    for (std::size_t slot = 0; slot < geom.slotsPerSet; ++slot) {
        Entry &entry = entries[at(set, slot)];
        if (entry.valid)
            continue;
        entry.valid = true;
        entry.sig = signatureOf(tag, bits);
        entry.tag = tag;
        ++liveCnt[set];
        ++stat.occupancySamples;
        stat.tagsLiveSum += liveCnt[set];
        stat.residentBlockSum += liveCnt[set];
        return slot;
    }
    panic("SignatureTags::allocate: set %u has no free slot", set);
}

void
SignatureTags::noteResize(unsigned set, std::size_t slot,
                          unsigned occupied)
{
    (void)set;
    (void)slot;
    (void)occupied; // signatures carry no size fields
}

void
SignatureTags::noteEviction(unsigned set, std::size_t slot)
{
    Entry &entry = entries[at(set, slot)];
    if (!entry.valid)
        panic("SignatureTags::noteEviction: set %u slot %zu not live",
              set, slot);
    entry.valid = false;
    --liveCnt[set];
}

void
SignatureTags::reset(ResetCause cause)
{
    std::uint64_t live = 0;
    for (const Entry &entry : entries)
        live += entry.valid ? 1 : 0;
    (cause == ResetCause::Flush ? stat.metadataFlushes
                                : stat.metadataLosses) += live;
    for (Entry &entry : entries)
        entry.valid = false;
    for (unsigned &count : liveCnt)
        count = 0;
}

unsigned
SignatureTags::coResidents(unsigned set, std::size_t slot) const
{
    (void)set;
    (void)slot;
    return 1;
}

void
SignatureTags::selfCheck() const
{
    for (unsigned set = 0; set < geom.sets; ++set) {
        unsigned live = 0;
        for (std::size_t slot = 0; slot < geom.slotsPerSet; ++slot) {
            const Entry &entry = entries[at(set, slot)];
            if (!entry.valid)
                continue;
            ++live;
            if (entry.sig != signatureOf(entry.tag, bits))
                panic("SignatureTags: stored signature drifted (set "
                      "%u slot %zu)",
                      set, slot);
            for (std::size_t other = slot + 1;
                 other < geom.slotsPerSet; ++other) {
                const Entry &rhs = entries[at(set, other)];
                if (rhs.valid && rhs.tag == entry.tag)
                    panic("SignatureTags: duplicate tag %llu in set "
                          "%u",
                          static_cast<unsigned long long>(entry.tag),
                          set);
            }
        }
        if (live != liveCnt[set])
            panic("SignatureTags: set %u live count %u != cached %u",
                  set, live, liveCnt[set]);
    }
}

} // namespace tags
} // namespace kagura
