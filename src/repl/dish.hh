/**
 * @file
 * DISH-style superblock-aware replacement (after the DISH compressed
 * layout's dictionary-sharing insight): in a tag layout that groups
 * neighbouring blocks under one shared tag entry, evicting a *lone*
 * member releases the whole entry, while evicting one of several
 * co-residents leaves the entry pinned by its siblings. Preferring
 * lone members therefore maximises the tag entries freed per
 * eviction, which is exactly what the superblock layout is short of
 * under heavy compression.
 *
 * The policy is stateless beyond what every Candidate already
 * carries: coResident (siblings sharing the tag entry, itself
 * included) and the timestamps. Within the same co-residency class it
 * degrades to LRU, and EDBP's dead-first rule still applies first
 * (deadFirstScan), so on ungrouped layouts -- where every coResident
 * is 1 -- DISH selects bit-identically to LRU.
 */

#ifndef KAGURA_REPL_DISH_HH
#define KAGURA_REPL_DISH_HH

#include "repl/policy.hh"

namespace kagura
{
namespace repl
{

/** Superblock-aware eviction: fewest co-residents first, then LRU. */
class DishPolicy : public ReplacementPolicy
{
  public:
    explicit DishPolicy(const PolicyGeometry &geometry)
        : ReplacementPolicy(geometry, Hooks{.eviction = true})
    {
    }
    ReplKind kind() const override { return ReplKind::Dish; }
    std::size_t victim(const Candidate *cands, std::size_t n,
                       const SelectContext &ctx) override;
    void recordMetrics(metrics::MetricSet &mset,
                       std::string_view prefix) const override;
    void noteEvicted(unsigned set, std::size_t slot) override;

  private:
    /** Co-residency of the victim the last victim() call picked. */
    unsigned lastVictimCoResident = 1;
    /** Evictions that released their whole tag entry (coResident 1). */
    std::uint64_t loneEvictions = 0;
    /** Evictions that left siblings pinning the shared entry. */
    std::uint64_t pinnedEvictions = 0;
};

} // namespace repl
} // namespace kagura

#endif // KAGURA_REPL_DISH_HH
