/**
 * @file
 * Shadow tag arrays: a tag-only model of an *uncompressed* cache with
 * the same geometry, extended to twice the associativity. ACC [10] uses
 * the LRU stack position reported here to classify each hit in the real
 * compressed cache:
 *
 *  - depth <  ways      : the block would also hit uncompressed; if the
 *                         real copy was compressed, the decompression
 *                         was pure overhead.
 *  - ways <= depth < 2w : the hit exists *only because* compression
 *                         enlarged the effective capacity (avoided miss).
 *  - depth out of range : the block would miss either way.
 */

#ifndef KAGURA_CACHE_SHADOW_TAGS_HH
#define KAGURA_CACHE_SHADOW_TAGS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace kagura
{

/** Tag-only LRU stack model used by ACC's benefit classifier. */
class ShadowTags
{
  public:
    /** Depth returned when the tag is not resident at all. */
    static constexpr unsigned depthMiss = ~0u;

    /**
     * @param sets Number of sets (same as the real cache).
     * @param ways Real associativity; the stack tracks 2 x ways tags.
     * @param block_size Block size in bytes.
     */
    ShadowTags(unsigned sets, unsigned ways, unsigned block_size);

    /**
     * Touch @p addr: returns the LRU stack depth the tag was found at
     * (0 = MRU) or depthMiss, then promotes it to MRU (allocating and
     * displacing the LRU tag as needed).
     */
    unsigned
    touch(Addr addr)
    {
        const std::uint64_t block = addr >> blockShift;
        std::uint64_t *stack = stackOf(block);
        const std::uint64_t key = split.line(block) << 2;
        const unsigned depth_found = find(stack, key);

        // Promote to MRU, shifting the entries above it down one place;
        // on a miss the LRU tag falls off the end and the new entry is
        // unrated. Every position is rewritten through a mask, so the
        // shift has no data-dependent branch either.
        const bool hit = depth_found != depthMiss;
        const unsigned last = hit ? depth_found : depth - 1;
        const std::uint64_t promoted = hit ? stack[last] : key;
        for (unsigned i = depth - 1; i > 0; --i) {
            const std::uint64_t moves = 0 - std::uint64_t{i <= last};
            stack[i] = (stack[i - 1] & moves) | (stack[i] & ~moves);
        }
        stack[0] = promoted;
        return depth_found;
    }

    /**
     * Compressibility reputation of @p addr: +1 if the compressor
     * found it compressible last time, -1 if it proved incompressible,
     * 0 if the compressor has not rated it (yet, or the rating was
     * lost with the shadow state at a power failure). Feeds the "miss
     * due to disabled compression" classifier: a miss on a
     * known-incompressible block is not compression's fault.
     */
    int compressibleRating(Addr addr) const;

    /** Record the compressor's verdict for @p addr (MRU or not). */
    void setCompressible(Addr addr, bool is_compressible);

    /** Drop every tag (power failure). */
    void invalidateAll();

    /** Real associativity the depths are compared against. */
    unsigned realWays() const { return ways; }

  private:
    /**
     * One stack entry in a word: the tag above two rating bits, so a
     * touch scans and shifts with conditional moves. Tags are block
     * numbers over the set count, far below 2^62.
     */
    static constexpr std::uint64_t rated = 1;
    static constexpr std::uint64_t compressible = 2;
    static constexpr std::uint64_t ratingBits = rated | compressible;
    /** An entry no tag matches. */
    static constexpr std::uint64_t invalidEntry = ~0ULL;

    /** The 2 x ways stack of the set holding @p block, MRU first. */
    std::uint64_t *
    stackOf(std::uint64_t block)
    {
        return entries.data() +
               static_cast<std::size_t>(split.set(block)) * depth;
    }
    const std::uint64_t *
    stackOf(std::uint64_t block) const
    {
        return const_cast<ShadowTags *>(this)->stackOf(block);
    }

    /** Depth of the entry for tag word @p key in @p stack, or depthMiss. */
    unsigned
    find(const std::uint64_t *stack, std::uint64_t key) const
    {
        // Every entry is compared, deepest first, so the match comes out
        // of a conditional move instead of a data-dependent loop exit (a
        // stack holds each tag at most once).
        unsigned found = depthMiss;
        for (unsigned i = depth; i-- > 0;) {
            if ((stack[i] & ~ratingBits) == key)
                found = i;
        }
        return found;
    }

    unsigned ways;
    /** Stack depth per set (2 x ways). */
    unsigned depth;
    unsigned blockShift;
    SetSplit split;

    /** Every set's stack, set-major. */
    std::vector<std::uint64_t> entries;
};

} // namespace kagura

#endif // KAGURA_CACHE_SHADOW_TAGS_HH
