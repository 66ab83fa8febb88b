/**
 * @file
 * Cache-block compressor interface and factory (Section II-B).
 *
 * Each algorithm produces a self-describing bit payload so that the
 * original block can be reconstructed exactly; the simulator only uses
 * the compressed *size*, but the full round trip is implemented (and
 * unit-tested) so the library is usable as a real compression kit.
 *
 * The API is span-based and allocation-free: compress() packs the
 * payload into a caller-provided fixed PayloadBuffer, sizeBits() gives
 * the same bit count without materializing a payload (BDI computes it
 * from the variant decision compress() also uses; the other algorithms
 * walk their encoder with a counting sink), and decompress()
 * reconstructs into a caller-provided destination. Vector-returning
 * conveniences remain for tests and tools (a std::vector<std::uint8_t>
 * converts to ConstByteSpan implicitly). See docs/ARCHITECTURE.md.
 */

#ifndef KAGURA_COMPRESS_COMPRESSOR_HH
#define KAGURA_COMPRESS_COMPRESSOR_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/block.hh"
#include "common/spelling.hh"
#include "common/types.hh"
#include "energy/energy_model.hh"
#include "metrics/fwd.hh"

namespace kagura
{

/**
 * The four algorithms the paper evaluates (Fig. 23), plus two
 * extension algorithms from its related-work discussion (Section IX).
 */
enum class CompressorKind
{
    Bdi,   ///< Base-Delta-Immediate [131] (default)
    Fpc,   ///< Frequent Pattern Compression [8]
    CPack, ///< Cache Packer [35]
    Dzc,   ///< Dynamic Zero Compression [160]
    Bpc,   ///< Bit-Plane Compression [91] (extension)
    Fvc,   ///< Frequent Value Compression, CC-style [171] (extension)
};

/** Algorithm names, in enum order; "cpack" is a CLI alias. */
inline constexpr EnumName<CompressorKind> compressorKindNames[] = {
    {CompressorKind::Bdi, "BDI"},
    {CompressorKind::Fpc, "FPC"},
    {CompressorKind::CPack, "C-Pack", "cpack"},
    {CompressorKind::Dzc, "DZC"},
    {CompressorKind::Bpc, "BPC"},
    {CompressorKind::Fvc, "FVC"},
};

inline const char *
compressorKindName(CompressorKind kind)
{
    return enumName<compressorKindNames>(kind);
}

/**
 * Fixed-capacity scratch for one compressed payload. Sized for the
 * worst case any algorithm produces on a Block::maxBytes block (FVC's
 * full-dictionary miss at ~99 B is the largest; DZC/BPC raw stay
 * under 80 B), so compress() never allocates and never overflows.
 */
class PayloadBuffer
{
  public:
    static constexpr std::size_t capacityBytes = 2 * Block::maxBytes + 32;

    PayloadBuffer() = default;

    /** Zero the buffer for a fresh payload (writers OR bits in). */
    void
    clear()
    {
        std::memset(bytes.data(), 0, bytes.size());
        bitCount = 0;
    }

    /** The full scratch area (compress() writes through this). */
    MutByteSpan scratch() { return {bytes.data(), bytes.size()}; }

    /** Record the payload length once encoding finished. */
    void setBits(std::uint64_t bits) { bitCount = bits; }

    /** Exact payload length in bits. */
    std::uint64_t bits() const { return bitCount; }

    /** Payload length rounded up to bytes. */
    std::uint64_t bytesUsed() const { return ceilDiv(bitCount, 8); }

    /** View of the encoded payload. */
    ConstByteSpan
    span() const
    {
        return {bytes.data(), static_cast<std::size_t>(bytesUsed())};
    }

  private:
    std::array<std::uint8_t, capacityBytes> bytes{};
    std::uint64_t bitCount = 0;
};

/** Outcome of compressing one cache block (vector convenience). */
struct CompressionResult
{
    /** Exact compressed size in bits, including all metadata. */
    std::uint64_t sizeBits = 0;

    /** Self-describing payload; decompress() reconstructs the block. */
    std::vector<std::uint8_t> payload;

    /** Compressed size rounded up to bytes. */
    std::uint64_t sizeBytes() const { return ceilDiv(sizeBits, 8); }
};

/** Abstract cache-block compressor. */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Algorithm identity. */
    virtual CompressorKind kind() const = 0;

    /** Algorithm name for reports. */
    virtual const char *name() const { return compressorKindName(kind()); }

    /**
     * Compress @p block into @p out (cleared first); never fails
     * (worst case: stored raw). Returns the exact payload bits, also
     * recorded in @p out. Never allocates.
     */
    virtual std::uint64_t compress(ConstByteSpan block,
                                   PayloadBuffer &out) const = 0;

    /**
     * Exact compressed size in bits without materializing a payload;
     * always equal to compress()'s bits. Never allocates.
     */
    virtual std::uint64_t sizeBits(ConstByteSpan block) const = 0;

    /**
     * Reconstruct the original block from a payload produced by
     * compress(); @p block (the destination) must be the original
     * block's size. Never allocates.
     */
    virtual void decompress(ConstByteSpan payload,
                            MutByteSpan block) const = 0;

    /** Energy/latency costs of this algorithm (Table I row). */
    virtual CompressionCosts costs() const = 0;

    /** Convenience: compress into a fresh CompressionResult. */
    CompressionResult
    compress(ConstByteSpan block) const
    {
        PayloadBuffer buf;
        const std::uint64_t bits = compress(block, buf);
        const ConstByteSpan payload = buf.span();
        return {bits, {payload.begin(), payload.end()}};
    }

    /** Convenience: decompress into a fresh block vector. */
    std::vector<std::uint8_t>
    decompress(ConstByteSpan payload, std::size_t block_size) const
    {
        std::vector<std::uint8_t> block(block_size, 0);
        decompress(payload, MutByteSpan{block});
        return block;
    }

    /**
     * Convenience: compressed size in bytes, clamped to the original
     * block size (a block never occupies more than its raw footprint;
     * incompressible blocks are stored raw with a 1-bit raw marker
     * absorbed into tag metadata). Allocation-free.
     */
    std::uint64_t
    compressedBytes(ConstByteSpan block) const
    {
        const std::uint64_t raw = block.size();
        const std::uint64_t compressed = ceilDiv(sizeBits(block), 8);
        return compressed < raw ? compressed : raw;
    }

    /**
     * Export this algorithm's identity and cost model into @p set as
     * "<prefix>/..." gauges, with an "algorithm" label on none (the
     * caller encodes identity in the prefix or harness labels).
     */
    void recordMetrics(metrics::MetricSet &set,
                       std::string_view prefix) const;
};

/** Build a compressor of the given kind. */
std::unique_ptr<Compressor> makeCompressor(CompressorKind kind);

} // namespace kagura

#endif // KAGURA_COMPRESS_COMPRESSOR_HH
