/**
 * @file
 * CAMP: Compression-Aware Management Policy (Pekhimenko et al.,
 * HPCA'15; see PAPERS.md "Practical Data Compression for Modern
 * Memory Hierarchies"). Two size-aware ideas on an RRIP substrate:
 *
 *  - MVE (Minimal-Value Eviction): the victim is the line with the
 *    smallest value = expected-reuse / compressed-size. A big, stale
 *    block frees more segments than a small one at equal staleness,
 *    so it goes first.
 *
 *  - SIP (Size-based Insertion Policy): blocks that compress well are
 *    inserted with higher priority -- a small block costs little to
 *    keep and often signals a compressible (and reusable) region.
 *
 * Reuse is approximated by a 2-bit RRPV per tag slot (0 = imminent,
 * 3 = distant), refreshed to 0 on hits and aged on evictions. Value
 * comparisons are exact cross-multiplications -- no floating point on
 * the eviction path.
 */

#ifndef KAGURA_REPL_CAMP_HH
#define KAGURA_REPL_CAMP_HH

#include <vector>

#include "repl/policy.hh"

namespace kagura
{
namespace repl
{

class CampPolicy : public ReplacementPolicy
{
  public:
    explicit CampPolicy(const PolicyGeometry &geometry);
    ReplKind kind() const override { return ReplKind::Camp; }

    std::size_t victim(const Candidate *cands, std::size_t n,
                       const SelectContext &ctx) override;
    void noteFill(unsigned set, std::size_t slot, Addr base,
                  unsigned occupied) override;
    void noteTouch(unsigned set, std::size_t slot, bool is_write) override;
    void noteEvicted(unsigned set, std::size_t slot) override;
    void noteCacheCleared() override;

    static constexpr unsigned maxRrpv = 3;

  private:
    std::uint8_t &rrpvAt(unsigned set, std::size_t slot);

    /** RRPV per tag slot, row-major [set][slot]. */
    std::vector<std::uint8_t> rrpv;
};

} // namespace repl
} // namespace kagura

#endif // KAGURA_REPL_CAMP_HH
