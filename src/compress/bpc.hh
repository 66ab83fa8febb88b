/**
 * @file
 * Bit-Plane Compression [91], as described in the paper's Section IX:
 * compute deltas between neighbouring 32-bit values, reorganise the
 * deltas into bit-planes, XOR adjacent planes (the DBX transform) to
 * create long zero runs, and encode each transformed plane with short
 * codes. Decompression reverses the XOR and bit-plane transform and
 * prefix-sums the deltas from the base value.
 *
 * This is a repository extension beyond the paper's four evaluated
 * algorithms (Fig. 23 uses BDI/FPC/C-Pack/DZC).
 */

#ifndef KAGURA_COMPRESS_BPC_HH
#define KAGURA_COMPRESS_BPC_HH

#include "compress/compressor.hh"

namespace kagura
{

/** Bit-Plane Compression compressor. */
class BpcCompressor : public Compressor
{
  public:
    CompressorKind kind() const override { return CompressorKind::Bpc; }

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
        // The delta + bit-plane + XOR pipeline is deeper than BDI's
        // parallel compare; scaled against the Table I figures.
        return {5.20, 1.60, 5, 5};
    }
};

} // namespace kagura

#endif // KAGURA_COMPRESS_BPC_HH
