/**
 * @file
 * CRRIP: a size-bucketed RRIP variant for compressed caches. Like
 * SRRIP, each tag slot carries a 2-bit re-reference prediction value;
 * unlike SRRIP, the *insertion* RRPV depends on the block's
 * compressed footprint -- small blocks are cheap to retain, so they
 * start nearer (ECM-style size-aware insertion), while full-size
 * blocks start distant. Eviction is plain RRIP: the stalest (highest
 * RRPV) line goes, with the usual aging applied to survivors.
 */

#ifndef KAGURA_REPL_CRRIP_HH
#define KAGURA_REPL_CRRIP_HH

#include <vector>

#include "repl/policy.hh"

namespace kagura
{
namespace repl
{

class CrripPolicy : public ReplacementPolicy
{
  public:
    explicit CrripPolicy(const PolicyGeometry &geometry);
    ReplKind kind() const override { return ReplKind::Crrip; }

    std::size_t victim(const Candidate *cands, std::size_t n,
                       const SelectContext &ctx) override;
    void noteFill(unsigned set, std::size_t slot, Addr base,
                  unsigned occupied) override;
    void noteTouch(unsigned set, std::size_t slot, bool is_write) override;
    void noteEvicted(unsigned set, std::size_t slot) override;
    void noteCacheCleared() override;

    static constexpr unsigned maxRrpv = 3;

    /** Insertion RRPV for a block occupying @p occupied bytes. */
    unsigned insertionRrpv(unsigned occupied) const;

  private:
    std::uint8_t &rrpvAt(unsigned set, std::size_t slot);

    /** RRPV per tag slot, row-major [set][slot]. */
    std::vector<std::uint8_t> rrpv;
};

} // namespace repl
} // namespace kagura

#endif // KAGURA_REPL_CRRIP_HH
