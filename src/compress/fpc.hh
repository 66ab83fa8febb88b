/**
 * @file
 * Frequent Pattern Compression [8].
 *
 * The block is split into 32-bit words; each word is matched against a
 * small set of frequent patterns (zero runs, narrow sign-extended
 * integers, halfword forms, repeated bytes) and encoded as a 3-bit
 * prefix plus the pattern-specific data bits.
 */

#ifndef KAGURA_COMPRESS_FPC_HH
#define KAGURA_COMPRESS_FPC_HH

#include "compress/compressor.hh"

namespace kagura
{

/** Frequent Pattern Compression compressor. */
class FpcCompressor : public Compressor
{
  public:
    CompressorKind kind() const override { return CompressorKind::Fpc; }

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
        // Scaled against the published BDI figures: FPC's per-word
        // pattern matcher is cheaper to drive but the serial prefix
        // parse makes decompression costlier (3 cycles as in [8]).
        return {2.90, 1.10, 3, 3};
    }
};

} // namespace kagura

#endif // KAGURA_COMPRESS_FPC_HH
