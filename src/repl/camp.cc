#include "repl/camp.hh"

#include <algorithm>

namespace kagura
{
namespace repl
{

CampPolicy::CampPolicy(const PolicyGeometry &geometry)
    : ReplacementPolicy(geometry,
                        Hooks{.fill = true, .touch = true, .eviction = true})
{
    rrpv.assign(static_cast<std::size_t>(geom.sets) * geom.slotsPerSet,
                maxRrpv);
}

std::uint8_t &
CampPolicy::rrpvAt(unsigned set, std::size_t slot)
{
    return rrpv[static_cast<std::size_t>(set) * geom.slotsPerSet + slot];
}

std::size_t
CampPolicy::victim(const Candidate *cands, std::size_t n,
                   const SelectContext &ctx)
{
    // MVE: evict the minimum of value(line) = weight / size, where
    // weight = maxRrpv + 1 - rrpv (imminent reuse is worth more) and
    // size is the occupied footprint in segments. value_a < value_b
    // iff w_a * s_b < w_b * s_a -- integer cross-multiplication, so
    // the comparison is exact and platform-independent.
    const unsigned seg = geom.segmentBytes ? geom.segmentBytes : 1;
    const auto weight = [this, &ctx](const Candidate &cand) {
        return static_cast<std::uint64_t>(
            maxRrpv + 1 -
            rrpvAt(ctx.setIndex, cand.slot));
    };
    const auto segments = [seg](const Candidate &cand) {
        return static_cast<std::uint64_t>(cand.occupied ? cand.occupied / seg
                                                        : 1);
    };
    return deadFirstScan(
        cands, n,
        [&](const Candidate &cand, std::size_t, const Candidate &best,
            std::size_t) {
            return weight(cand) * segments(best) <
                   weight(best) * segments(cand);
        });
}

void
CampPolicy::noteFill(unsigned set, std::size_t slot, Addr, unsigned occupied)
{
    // SIP: blocks that compress to half a block or less are inserted
    // with near-imminent priority; everything else starts long.
    rrpvAt(set, slot) =
        (occupied * 2 <= geom.blockSize) ? 1 : maxRrpv - 1;
}

void
CampPolicy::noteTouch(unsigned set, std::size_t slot, bool)
{
    rrpvAt(set, slot) = 0;
}

void
CampPolicy::noteEvicted(unsigned set, std::size_t slot)
{
    // Age the survivors so stale lines drift toward eviction even
    // without hits (the RRIP aging step, folded into eviction time).
    for (std::size_t peer = 0; peer < geom.slotsPerSet; ++peer) {
        std::uint8_t &val = rrpvAt(set, peer);
        if (peer != slot && val < maxRrpv)
            ++val;
    }
    rrpvAt(set, slot) = maxRrpv;
}

void
CampPolicy::noteCacheCleared()
{
    ReplacementPolicy::noteCacheCleared();
    std::fill(rrpv.begin(), rrpv.end(),
              static_cast<std::uint8_t>(maxRrpv));
}

} // namespace repl
} // namespace kagura
