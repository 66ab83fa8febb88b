#include "kagura/adapt_policy.hh"

#include <algorithm>
#include <cmath>

namespace kagura
{

std::uint64_t
adaptThreshold(AdaptScheme scheme, std::uint64_t threshold,
               std::uint64_t evictions, double increase_step,
               double pressure_fraction)
{
    // "Kagura halves R_thres if R_evict is large; otherwise it
    // increases R_thres by 10%" (Section VI-B). Our R_evict counts
    // *misses attributable to disabled compression*, so the pressure
    // comparison is against a small fraction of the threshold window
    // (more than ~8% of the Regular-Mode memory ops missing because
    // compression was off means the mode started too early). The
    // other schemes swap the additive/multiplicative roles.
    const bool pressured =
        static_cast<double>(evictions) >
        static_cast<double>(threshold) * pressure_fraction;
    const auto additive = [&](std::uint64_t t) {
        const auto step = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(t) * increase_step));
        return step > 0 ? step : 1;
    };

    std::uint64_t next = threshold;
    if (pressured) {
        // Capacity was insufficient: lower the threshold so the next
        // cycle compresses for longer.
        switch (scheme) {
          case AdaptScheme::Aimd:
          case AdaptScheme::Mimd:
            next = threshold / 2;
            break;
          case AdaptScheme::Miad:
          case AdaptScheme::Aiad:
            next = threshold - std::min(threshold, additive(threshold));
            break;
        }
    } else {
        // Capacity was sufficient: raise the threshold to save energy
        // on compressions near the end of the next cycle.
        switch (scheme) {
          case AdaptScheme::Aimd:
          case AdaptScheme::Aiad:
            next = threshold + additive(threshold);
            break;
          case AdaptScheme::Miad:
          case AdaptScheme::Mimd:
            next = threshold * 2;
            break;
        }
    }
    return std::clamp(next, minThreshold, maxThreshold);
}

} // namespace kagura
