#include "repl/dish.hh"

#include <string>

#include "metrics/registry.hh"

namespace kagura
{
namespace repl
{

std::size_t
DishPolicy::victim(const Candidate *cands, std::size_t n,
                   const SelectContext &)
{
    const std::size_t pick = deadFirstScan(
        cands, n,
        [](const Candidate &cand, std::size_t, const Candidate &best,
           std::size_t) {
            // Fewest co-residents wins (a lone member frees its tag
            // entry outright); LRU breaks ties. Strict comparisons:
            // the first candidate keeps full ties, matching every
            // other policy's scan.
            if (cand.coResident != best.coResident)
                return cand.coResident < best.coResident;
            return cand.lastUse < best.lastUse;
        });
    lastVictimCoResident = cands[pick].coResident;
    return pick;
}

void
DishPolicy::noteEvicted(unsigned, std::size_t)
{
    if (lastVictimCoResident <= 1)
        ++loneEvictions;
    else
        ++pinnedEvictions;
    lastVictimCoResident = 1;
}

void
DishPolicy::recordMetrics(metrics::MetricSet &mset,
                          std::string_view prefix) const
{
    ReplacementPolicy::recordMetrics(mset, prefix);
    const std::string base(prefix);
    mset.counter(base + "/lone_evictions", loneEvictions);
    mset.counter(base + "/pinned_evictions", pinnedEvictions);
}

} // namespace repl
} // namespace kagura
