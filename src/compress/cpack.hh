/**
 * @file
 * C-Pack compression [35].
 *
 * Each 32-bit word is matched against static patterns (all-zero,
 * zero-padded byte) and a small FIFO dictionary of recently seen words;
 * full and partial (upper 2-3 bytes) dictionary matches get short codes.
 * Unmatched words enter the dictionary and are stored raw.
 */

#ifndef KAGURA_COMPRESS_CPACK_HH
#define KAGURA_COMPRESS_CPACK_HH

#include "compress/compressor.hh"

namespace kagura
{

/** C-Pack compressor. */
class CPackCompressor : public Compressor
{
  public:
    CompressorKind kind() const override { return CompressorKind::CPack; }

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
        // The dictionary CAM makes C-Pack the most expensive of the
        // four algorithms per operation (scaled against Table I's BDI).
        return {4.50, 1.30, 4, 4};
    }

    /** Dictionary capacity in words (the paper's hardware uses 16). */
    static constexpr std::size_t dictSize = 16;
};

} // namespace kagura

#endif // KAGURA_COMPRESS_CPACK_HH
