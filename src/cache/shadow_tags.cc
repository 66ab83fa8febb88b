#include "cache/shadow_tags.hh"

#include "common/logging.hh"

namespace kagura
{

namespace
{
constexpr std::uint64_t invalidTag = ~0ULL;
} // namespace

ShadowTags::ShadowTags(unsigned sets_, unsigned ways_, unsigned block_size)
    : ways(ways_), blockShift(floorLog2(block_size)), split(sets_)
{
    kagura_assert(isPowerOfTwo(block_size));
    kagura_assert(sets_ > 0 && ways > 0);
    stacks.assign(
        sets_,
        std::vector<Entry>(2 * ways, Entry{invalidTag, false, false}));
}

unsigned
ShadowTags::touch(Addr addr)
{
    const std::uint64_t block = addr >> blockShift;
    auto &stack = stacks[split.set(block)];
    const std::uint64_t tag = split.line(block);

    unsigned depth = depthMiss;
    for (unsigned i = 0; i < stack.size(); ++i) {
        if (stack[i].tag == tag) {
            depth = i;
            break;
        }
    }

    // Promote to MRU (shifting the intervening entries down). On a
    // miss the LRU tag falls off the end.
    const unsigned last =
        depth == depthMiss ? static_cast<unsigned>(stack.size()) - 1 : depth;
    const Entry promoted =
        depth == depthMiss ? Entry{tag, false, false} : stack[depth];
    for (unsigned i = last; i > 0; --i)
        stack[i] = stack[i - 1];
    stack[0] = promoted;
    return depth;
}

int
ShadowTags::compressibleRating(Addr addr) const
{
    const std::uint64_t block = addr >> blockShift;
    const auto &stack = stacks[split.set(block)];
    const std::uint64_t tag = split.line(block);
    for (const Entry &entry : stack) {
        if (entry.tag == tag) {
            if (!entry.rated)
                return 0;
            return entry.compressible ? 1 : -1;
        }
    }
    return 0;
}

void
ShadowTags::setCompressible(Addr addr, bool compressible)
{
    const std::uint64_t block = addr >> blockShift;
    auto &stack = stacks[split.set(block)];
    const std::uint64_t tag = split.line(block);
    for (Entry &entry : stack) {
        if (entry.tag == tag) {
            entry.compressible = compressible;
            entry.rated = true;
            return;
        }
    }
}

void
ShadowTags::invalidateAll()
{
    for (auto &stack : stacks)
        std::fill(stack.begin(), stack.end(),
                  Entry{invalidTag, false, false});
}

} // namespace kagura
