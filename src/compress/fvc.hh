/**
 * @file
 * Frequent Value Compression in the spirit of CC [171] (the paper's
 * Section IX): frequent 32-bit values in a block are replaced with
 * short dictionary codes while rare values stay verbatim; a per-word
 * mask distinguishes the two. Our realisation builds the frequent-
 * value dictionary per block (up to 7 values that occur at least
 * twice) and stores it in the payload, which keeps the scheme fully
 * self-describing.
 *
 * This is a repository extension beyond the paper's four evaluated
 * algorithms.
 */

#ifndef KAGURA_COMPRESS_FVC_HH
#define KAGURA_COMPRESS_FVC_HH

#include "compress/compressor.hh"

namespace kagura
{

/** Frequent Value Compression compressor. */
class FvcCompressor : public Compressor
{
  public:
    CompressorKind kind() const override { return CompressorKind::Fvc; }

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
        // A small CAM of frequent values: cheaper than C-Pack's
        // dictionary but costlier than DZC's gates.
        return {2.00, 0.60, 2, 2};
    }

    /** Dictionary capacity (3-bit codes; code 7 = literal marker). */
    static constexpr std::size_t dictCapacity = 7;
};

} // namespace kagura

#endif // KAGURA_COMPRESS_FVC_HH
