#include "cache/shadow_tags.hh"

#include <algorithm>

#include "common/logging.hh"

namespace kagura
{

ShadowTags::ShadowTags(unsigned sets_, unsigned ways_, unsigned block_size)
    : ways(ways_), depth(2 * ways_), blockShift(floorLog2(block_size)),
      split(sets_)
{
    kagura_assert(isPowerOfTwo(block_size));
    kagura_assert(sets_ > 0 && ways > 0);
    entries.assign(static_cast<std::size_t>(sets_) * depth, invalidEntry);
}

int
ShadowTags::compressibleRating(Addr addr) const
{
    const std::uint64_t block = addr >> blockShift;
    const std::uint64_t *stack = stackOf(block);
    const unsigned at = find(stack, split.line(block) << 2);
    if (at == depthMiss || !(stack[at] & rated))
        return 0;
    return stack[at] & compressible ? 1 : -1;
}

void
ShadowTags::setCompressible(Addr addr, bool is_compressible)
{
    const std::uint64_t block = addr >> blockShift;
    std::uint64_t *stack = stackOf(block);
    const std::uint64_t key = split.line(block) << 2;
    const unsigned at = find(stack, key);
    if (at != depthMiss)
        stack[at] = key | rated | (is_compressible ? compressible : 0);
}

void
ShadowTags::invalidateAll()
{
    std::fill(entries.begin(), entries.end(), invalidEntry);
}

} // namespace kagura
