/**
 * @file
 * Base-Delta-Immediate compression [131].
 *
 * A block is encoded as one non-zero base plus per-value deltas; each
 * value may alternatively take its delta against an implicit zero base
 * (the "immediate" part), selected by a per-value mask bit. Of the six
 * (base size, delta size) variants, the smallest one every value fits
 * wins; a variant's size depends only on the block length, so the
 * choice needs no trial encoding. All-zero and repeated-value blocks
 * get dedicated short forms.
 */

#ifndef KAGURA_COMPRESS_BDI_HH
#define KAGURA_COMPRESS_BDI_HH

#include "compress/compressor.hh"

namespace kagura
{

/** Base-Delta-Immediate compressor. */
class BdiCompressor : public Compressor
{
  public:
    CompressorKind kind() const override { return CompressorKind::Bdi; }

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
        // Compress/decompress energies are the paper's Table I values;
        // latencies follow the BDI paper (1-cycle decompression adder,
        // 2-cycle parallel compare/compress).
        return {3.84, 0.65, 2, 1};
    }
};

} // namespace kagura

#endif // KAGURA_COMPRESS_BDI_HH
