/**
 * @file
 * Dynamic Zero Compression [160].
 *
 * One Zero Indicator Bit (ZIB) per byte; zero bytes store only their
 * indicator, non-zero bytes are stored verbatim after the ZIB vector.
 */

#ifndef KAGURA_COMPRESS_DZC_HH
#define KAGURA_COMPRESS_DZC_HH

#include "compress/compressor.hh"

namespace kagura
{

/** Dynamic Zero Compression compressor. */
class DzcCompressor : public Compressor
{
  public:
    CompressorKind kind() const override { return CompressorKind::Dzc; }

    std::uint64_t compress(ConstByteSpan block,
                           PayloadBuffer &out) const override;

    std::uint64_t sizeBits(ConstByteSpan block) const override;

    void decompress(ConstByteSpan payload,
                    MutByteSpan block) const override;

    // Keep the base class's vector conveniences visible alongside the
    // span overrides.
    using Compressor::compress;
    using Compressor::decompress;

    CompressionCosts
    costs() const override
    {
        // DZC is by far the lightest circuit: a ZIB check gates the
        // byte array; both directions are a fraction of BDI's cost.
        return {0.90, 0.25, 1, 1};
    }
};

} // namespace kagura

#endif // KAGURA_COMPRESS_DZC_HH
