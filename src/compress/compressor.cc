#include "compress/compressor.hh"

#include <string>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "compress/bdi.hh"
#include "compress/bpc.hh"
#include "compress/cpack.hh"
#include "compress/dzc.hh"
#include "compress/fvc.hh"
#include "compress/fpc.hh"

namespace kagura
{

void
Compressor::recordMetrics(metrics::MetricSet &set,
                          std::string_view prefix) const
{
    const CompressionCosts cost = costs();
    const auto leaf = [&](std::string_view name, double value) {
        std::string full(prefix);
        full += '/';
        full += name;
        set.gauge(std::move(full), value);
    };
    leaf("compress_energy_pj", cost.compressEnergy);
    leaf("decompress_energy_pj", cost.decompressEnergy);
    leaf("compress_latency_cycles",
         static_cast<double>(cost.compressLatency));
    leaf("decompress_latency_cycles",
         static_cast<double>(cost.decompressLatency));
}

std::unique_ptr<Compressor>
makeCompressor(CompressorKind kind)
{
    switch (kind) {
      case CompressorKind::Bdi:
        return std::make_unique<BdiCompressor>();
      case CompressorKind::Fpc:
        return std::make_unique<FpcCompressor>();
      case CompressorKind::CPack:
        return std::make_unique<CPackCompressor>();
      case CompressorKind::Dzc:
        return std::make_unique<DzcCompressor>();
      case CompressorKind::Bpc:
        return std::make_unique<BpcCompressor>();
      case CompressorKind::Fvc:
        return std::make_unique<FvcCompressor>();
    }
    panic("unknown CompressorKind %d", static_cast<int>(kind));
}

} // namespace kagura
