#include "repl/size_optgen.hh"

#include <algorithm>
#include <string>

#include "metrics/registry.hh"

namespace kagura
{
namespace repl
{

SizeOptgenPolicy::SizeOptgenPolicy(const PolicyGeometry &geometry)
    : LruPolicy(geometry, Hooks{.access = true})
{
    sets.reserve(geom.sets);
    for (unsigned s = 0; s < geom.sets; ++s)
        sets.emplace_back(ringQuanta);
}

std::uint64_t
SizeOptgenPolicy::quantaOf(unsigned set) const
{
    return sets[set].clock;
}

bool
SizeOptgenPolicy::canCache(unsigned set, std::uint64_t start,
                           std::uint64_t end, unsigned footprint) const
{
    const SetModel &model = sets[set];
    if (start >= end)
        return false;
    if (!model.ring.inBounds(start))
        return false;
    const std::uint32_t byte_cap = geom.ways * geom.blockSize;
    for (std::uint64_t q = start; q < end; ++q) {
        const OptgenRingBuffer::Quantum &quantum = model.ring.at(q);
        if (quantum.bytes + footprint > byte_cap ||
            quantum.tags + 1 > geom.slotsPerSet) {
            return false;
        }
    }
    return true;
}

bool
SizeOptgenPolicy::tryCache(unsigned set, std::uint64_t start,
                           std::uint64_t end, unsigned footprint)
{
    if (!canCache(set, start, end, footprint))
        return false;
    SetModel &model = sets[set];
    for (std::uint64_t q = start; q < end; ++q) {
        OptgenRingBuffer::Quantum &quantum = model.ring.at(q);
        quantum.bytes += footprint;
        quantum.tags += 1;
    }
    return true;
}

void
SizeOptgenPolicy::noteAccess(unsigned set, Addr base, bool hit,
                             unsigned occupied)
{
    SetModel &model = sets[set];
    ++stats.accesses;

    // The model's footprint for this block going forward: its
    // compressed residency in the driving run, clamped to sane
    // bounds (an optimal schedule could always store it that small).
    const unsigned seg = geom.segmentBytes ? geom.segmentBytes : 1;
    const std::uint32_t footprint = std::clamp<std::uint32_t>(
        occupied, seg, geom.blockSize);

    const auto prev = model.lastUse.find(base);
    if (prev != model.lastUse.end()) {
        const bool stale = !model.ring.inBounds(prev->second.quanta);
        const bool attainable =
            !stale && tryCache(set, prev->second.quanta, model.clock,
                               prev->second.footprint);
        if (stale)
            ++staleIntervals;
        if (attainable) {
            ++stats.hits;
        } else if (hit) {
            // The driving (LRU) run kept it resident even though the
            // charged model could not place the interval; the upper
            // bound may never undercut an achieved hit.
            ++stats.hits;
            ++ridingHits;
        }
    } else if (hit) {
        // Resident with no recorded interval (e.g. prefetch fill):
        // the driving run hit, so the bound counts it too.
        ++stats.hits;
        ++ridingHits;
    }

    model.lastUse[base] = Liveness{model.clock, footprint};
    model.ring.push();
    ++model.clock;
}

void
SizeOptgenPolicy::noteCacheCleared()
{
    LruPolicy::noteCacheCleared();
    // No block survives a wholesale invalidation (checkpoint flush or
    // power failure), so no liveness interval may span it: even an
    // optimal schedule refetches afterwards.
    for (SetModel &model : sets)
        model.lastUse.clear();
}

void
SizeOptgenPolicy::recordMetrics(metrics::MetricSet &mset,
                                std::string_view prefix) const
{
    LruPolicy::recordMetrics(mset, prefix);
    const auto leaf = [&prefix](const char *name) {
        std::string full(prefix);
        full += '/';
        full += name;
        return full;
    };
    mset.counter(leaf("opt_accesses"), stats.accesses);
    mset.counter(leaf("opt_hits"), stats.hits);
    mset.counter(leaf("opt_riding_hits"), ridingHits);
    mset.counter(leaf("opt_stale_intervals"), staleIntervals);
    if (stats.accesses) {
        mset.gauge(leaf("opt_hit_rate"),
                   static_cast<double>(stats.hits) /
                       static_cast<double>(stats.accesses));
    }
}

const UpperBoundStats *
SizeOptgenPolicy::upperBound() const
{
    return &stats;
}

} // namespace repl
} // namespace kagura
