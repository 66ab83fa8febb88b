#include "cache/acc.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace kagura
{

void
AccController::recordMetrics(metrics::MetricSet &set,
                             std::string_view prefix) const
{
    std::string name(prefix);
    set.gauge(name + "/gcp", static_cast<double>(gcp));
    set.gauge(name + "/gcp_positive", gcp > 0 ? 1.0 : 0.0);
}

AccController::AccController(const AccConfig &config)
    : cfg(config), gcp(config.initialValue)
{
    if (cfg.saturationBound <= 0)
        fatal("ACC saturation bound must be positive");
}

void
AccController::noteCompressionEnabledHit(Addr)
{
    gcp += cfg.benefitQuantum;
    saturate();
}

void
AccController::noteWastedDecompression(Addr)
{
    gcp -= cfg.penaltyQuantum;
    saturate();
}

void
AccController::noteIncompressible(Addr)
{
    gcp -= cfg.incompressiblePenalty;
    saturate();
}

void
AccController::noteCompressionDisabledMiss(Addr)
{
    // This miss would have been a hit with compressed placement: the
    // same benefit signal as an enabled hit, observable even while
    // placement is vetoed -- so a negative GCP can recover.
    gcp += cfg.benefitQuantum;
    saturate();
}

void
AccController::noteRecompression(Addr)
{
    gcp -= cfg.recompressionPenalty;
    saturate();
}

void
AccController::reset()
{
    gcp = cfg.initialValue;
}

void
AccController::saturate()
{
    gcp = std::clamp(gcp, -cfg.saturationBound, cfg.saturationBound);
}

} // namespace kagura
