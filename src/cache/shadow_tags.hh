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
    unsigned touch(Addr addr);

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
    void setCompressible(Addr addr, bool compressible);

    /** Drop every tag (power failure). */
    void invalidateAll();

    /** Real associativity the depths are compared against. */
    unsigned realWays() const { return ways; }

  private:
    unsigned ways;
    unsigned blockShift;
    SetSplit split;

    struct Entry
    {
        std::uint64_t tag;
        bool compressible;
        bool rated;
    };

    /** Per set: entries ordered MRU first. Invalid slots hold ~0ULL. */
    std::vector<std::vector<Entry>> stacks;
};

} // namespace kagura

#endif // KAGURA_CACHE_SHADOW_TAGS_HH
