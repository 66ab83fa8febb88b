#include "repl/policy.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "repl/camp.hh"
#include "repl/classic.hh"
#include "repl/crrip.hh"
#include "repl/dish.hh"
#include "repl/size_optgen.hh"

namespace kagura
{
namespace repl
{

ReplacementPolicy::ReplacementPolicy(const PolicyGeometry &geometry,
                                     const Hooks &hooks)
    : geom(geometry), hooks_(hooks)
{
    const unsigned seg = geom.segmentBytes ? geom.segmentBytes : 1;
    victimSegments.assign(geom.blockSize / seg + 1, 0);
}

ReplacementPolicy::~ReplacementPolicy() = default;

void
ReplacementPolicy::noteFill(unsigned, std::size_t, Addr, unsigned)
{
}

void
ReplacementPolicy::noteTouch(unsigned, std::size_t, bool)
{
}

void
ReplacementPolicy::noteAccess(unsigned, Addr, bool, unsigned)
{
}

void
ReplacementPolicy::noteCacheCleared()
{
}

void
ReplacementPolicy::noteEviction(unsigned set, std::size_t slot,
                                unsigned occupied, bool dirty, bool dead)
{
    const unsigned seg = geom.segmentBytes ? geom.segmentBytes : 1;
    const std::size_t bucket =
        std::min<std::size_t>(occupied / seg, victimSegments.size() - 1);
    ++victimSegments[bucket];
    if (dirty)
        ++dirtyVictims;
    if (dead)
        ++deadVictims;
    if (occupied < geom.blockSize)
        ++compressedVictims;
    if (hooks_.eviction)
        noteEvicted(set, slot);
}

void
ReplacementPolicy::noteEvicted(unsigned, std::size_t)
{
}

void
ReplacementPolicy::recordMetrics(metrics::MetricSet &mset,
                                 std::string_view prefix) const
{
    const auto leaf = [&prefix](const char *name) {
        std::string full(prefix);
        full += '/';
        full += name;
        return full;
    };
    std::uint64_t total = 0;
    for (std::uint64_t count : victimSegments)
        total += count;
    mset.counter(leaf("victims")).add(total);
    mset.counter(leaf("dirty_victims")).add(dirtyVictims);
    mset.counter(leaf("dead_victims")).add(deadVictims);
    mset.counter(leaf("compressed_victims")).add(compressedVictims);
    for (std::size_t seg = 0; seg < victimSegments.size(); ++seg) {
        if (!victimSegments[seg])
            continue;
        std::string name(prefix);
        name += "/victim_segments/";
        name += std::to_string(seg);
        mset.counter(name).add(victimSegments[seg]);
    }
}

const UpperBoundStats *
ReplacementPolicy::upperBound() const
{
    return nullptr;
}

std::unique_ptr<ReplacementPolicy>
makePolicy(ReplKind kind, const PolicyGeometry &geometry)
{
    switch (kind) {
      case ReplKind::Lru:
        return std::make_unique<LruPolicy>(geometry);
      case ReplKind::Fifo:
        return std::make_unique<FifoPolicy>(geometry);
      case ReplKind::Random:
        return std::make_unique<RandomPolicy>(geometry);
      case ReplKind::Camp:
        return std::make_unique<CampPolicy>(geometry);
      case ReplKind::Crrip:
        return std::make_unique<CrripPolicy>(geometry);
      case ReplKind::SizeOptgen:
        return std::make_unique<SizeOptgenPolicy>(geometry);
      case ReplKind::Dish:
        return std::make_unique<DishPolicy>(geometry);
    }
    panic("unknown ReplKind %d", static_cast<int>(kind));
}

} // namespace repl
} // namespace kagura
