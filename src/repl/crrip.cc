#include "repl/crrip.hh"

#include <algorithm>

namespace kagura
{
namespace repl
{

CrripPolicy::CrripPolicy(const PolicyGeometry &geometry)
    : ReplacementPolicy(geometry,
                        Hooks{.fill = true, .touch = true, .eviction = true})
{
    rrpv.assign(static_cast<std::size_t>(geom.sets) * geom.slotsPerSet,
                maxRrpv);
}

std::uint8_t &
CrripPolicy::rrpvAt(unsigned set, std::size_t slot)
{
    return rrpv[static_cast<std::size_t>(set) * geom.slotsPerSet + slot];
}

unsigned
CrripPolicy::insertionRrpv(unsigned occupied) const
{
    // Size buckets over the uncompressed block size: quarter-block or
    // smaller inserts near, half-block intermediate, larger distant.
    if (occupied * 4 <= geom.blockSize)
        return 1;
    if (occupied * 2 <= geom.blockSize)
        return 2;
    return maxRrpv;
}

std::size_t
CrripPolicy::victim(const Candidate *cands, std::size_t n,
                    const SelectContext &ctx)
{
    // RRIP victim: the highest-RRPV (stalest) candidate; ties keep
    // the first in slot order, matching the canonical SRRIP scan.
    return deadFirstScan(
        cands, n,
        [this, &ctx](const Candidate &cand, std::size_t,
                     const Candidate &best, std::size_t) {
            return rrpvAt(ctx.setIndex, cand.slot) >
                   rrpvAt(ctx.setIndex, best.slot);
        });
}

void
CrripPolicy::noteFill(unsigned set, std::size_t slot, Addr,
                      unsigned occupied)
{
    rrpvAt(set, slot) = static_cast<std::uint8_t>(insertionRrpv(occupied));
}

void
CrripPolicy::noteTouch(unsigned set, std::size_t slot, bool)
{
    rrpvAt(set, slot) = 0;
}

void
CrripPolicy::noteEvicted(unsigned set, std::size_t slot)
{
    // SRRIP ages every survivor until one saturates; with eviction
    // already decided by the max-RRPV scan, a single increment per
    // eviction gives the same drift without the inner loop.
    for (std::size_t peer = 0; peer < geom.slotsPerSet; ++peer) {
        std::uint8_t &val = rrpvAt(set, peer);
        if (peer != slot && val < maxRrpv)
            ++val;
    }
    rrpvAt(set, slot) = maxRrpv;
}

void
CrripPolicy::noteCacheCleared()
{
    ReplacementPolicy::noteCacheCleared();
    std::fill(rrpv.begin(), rrpv.end(),
              static_cast<std::uint8_t>(maxRrpv));
}

} // namespace repl
} // namespace kagura
