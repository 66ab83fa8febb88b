/**
 * @file
 * SignatureTags: Touche-shaped tag-area mitigation. Each of the
 * 2x-ways entries stores a short hash ("signature") of the block tag
 * next to the full tag; a probe first compares signatures, and only a
 * signature match pays for the full-width comparison (the re-check
 * path). Different tags can share a signature, so a re-check may come
 * back negative -- a false positive, charged as extra probe latency
 * by the cache and counted in TagLayoutStats::sigFalsePositives.
 *
 * Placement and admission are identical to BaselineTags (first free
 * slot, any-invalid-slot admission, groupShift 0); only the match
 * path and its accounting differ. That makes the layout a pure
 * tag-energy/latency model: hit/miss *behavior* matches baseline,
 * which the tests exploit.
 */

#ifndef KAGURA_TAGS_SIGNATURE_HH
#define KAGURA_TAGS_SIGNATURE_HH

#include <vector>

#include "tags/layout.hh"

namespace kagura
{
namespace tags
{

class SignatureTags : public TagLayout
{
  public:
    /// Default signature width (TagGeometry::sigBits overrides). 6
    /// bits keeps false positives observable at kagura-scale set
    /// counts without flooding the re-check path.
    static constexpr unsigned signatureBits = 6;

    explicit SignatureTags(const TagGeometry &geometry);

    TagLayoutKind kind() const override
    {
        return TagLayoutKind::Signature;
    }

    /** The short hash a tag files under at width @p bits. */
    static std::uint16_t
    signatureOf(std::uint64_t tag, unsigned bits)
    {
        // Fibonacci-hash mix so dense tag sequences spread across
        // the signature space instead of aliasing modulo 2^bits.
        return static_cast<std::uint16_t>(
            (tag * 0x9e3779b97f4a7c15ull) >> (64 - bits));
    }

    /** The default-width hash (exposed for tests). */
    static std::uint16_t
    signatureOf(std::uint64_t tag)
    {
        return signatureOf(tag, signatureBits);
    }

    /** The width this instance files under. */
    unsigned sigBits() const { return bits; }

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
    struct Entry
    {
        bool valid = false;
        std::uint16_t sig = 0;
        std::uint64_t tag = 0;
    };

    std::size_t at(unsigned set, std::size_t slot) const
    {
        return static_cast<std::size_t>(set) * geom.slotsPerSet + slot;
    }

    std::vector<Entry> entries;    ///< sets x slotsPerSet, flattened
    std::vector<unsigned> liveCnt; ///< valid entries per set
    unsigned bits;                 ///< signature width for this cache
};

} // namespace tags
} // namespace kagura

#endif // KAGURA_TAGS_SIGNATURE_HH
