/**
 * @file
 * BaselineTags: the pre-subsystem one-full-tag-per-line-slot scheme,
 * re-implemented behind the TagLayout interface. Bit-identity is the
 * whole point: lookup scans slots in order, canAdmit is "any invalid
 * slot", allocate takes the first invalid slot, and the block->set
 * mapping uses groupShift 0 -- exactly what Cache did inline. The
 * golden fingerprints and the committed cache fixture pin all of it.
 *
 * BaselineTags records no TagLayoutStats (see stats.hh), so the
 * canonical result encoding of every pre-existing configuration is
 * unchanged.
 */

#ifndef KAGURA_TAGS_BASELINE_HH
#define KAGURA_TAGS_BASELINE_HH

#include <vector>

#include "tags/layout.hh"

namespace kagura
{
namespace tags
{

class BaselineTags : public TagLayout
{
  public:
    explicit BaselineTags(const TagGeometry &geometry);

    TagLayoutKind kind() const override
    {
        return TagLayoutKind::Baseline;
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
    /** Marks a free slot; no tag reaches it (tags are block / sets). */
    static constexpr std::uint64_t freeTag = ~0ULL;

    /** The first of @p set's slotsPerSet tags. */
    const std::uint64_t *
    setTags(unsigned set) const
    {
        return tags.data() + static_cast<std::size_t>(set) * geom.slotsPerSet;
    }
    std::uint64_t *
    setTags(unsigned set)
    {
        return tags.data() + static_cast<std::size_t>(set) * geom.slotsPerSet;
    }

    std::vector<std::uint64_t> tags; ///< sets x slotsPerSet, flattened
    std::vector<unsigned> liveCnt;   ///< valid entries per set
};

} // namespace tags
} // namespace kagura

#endif // KAGURA_TAGS_BASELINE_HH
