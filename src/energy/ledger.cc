#include "energy/ledger.hh"

#include <string>

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace kagura
{

const char *
energyCategoryName(EnergyCategory cat)
{
    switch (cat) {
      case EnergyCategory::Compress:
        return "Compress";
      case EnergyCategory::Decompress:
        return "Decompress";
      case EnergyCategory::CacheOther:
        return "Cache(other)";
      case EnergyCategory::Memory:
        return "Memory";
      case EnergyCategory::Checkpoint:
        return "Ckpt/Restore";
      case EnergyCategory::Others:
        return "Others";
      case EnergyCategory::NumCategories:
        break;
    }
    panic("unknown EnergyCategory %d", static_cast<int>(cat));
}

const char *
energyCategorySlug(EnergyCategory cat)
{
    switch (cat) {
      case EnergyCategory::Compress:
        return "compress";
      case EnergyCategory::Decompress:
        return "decompress";
      case EnergyCategory::CacheOther:
        return "cache_other";
      case EnergyCategory::Memory:
        return "memory";
      case EnergyCategory::Checkpoint:
        return "checkpoint";
      case EnergyCategory::Others:
        return "others";
      case EnergyCategory::NumCategories:
        break;
    }
    panic("unknown EnergyCategory %d", static_cast<int>(cat));
}

void
EnergyLedger::recordMetrics(metrics::MetricSet &set,
                            std::string_view prefix) const
{
    for (std::size_t i = 0; i < numCategories; ++i) {
        const auto cat = static_cast<EnergyCategory>(i);
        std::string name(prefix);
        name += '/';
        name += energyCategorySlug(cat);
        name += "_pj";
        set.gauge(std::move(name), total(cat));
    }
    std::string name(prefix);
    name += "/total_pj";
    set.gauge(std::move(name), grandTotal());
}

} // namespace kagura
