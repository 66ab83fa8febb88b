/**
 * @file
 * Bit-granular sinks and reader used by the compression algorithms to
 * build self-describing compressed payloads. Bits are packed LSB-first
 * into bytes.
 *
 * Every algorithm but BDI is written once as a template over a
 * *sink* (BDI sizes a block from its variant decision instead):
 *  - SpanBitWriter packs bits into a caller-provided fixed buffer
 *    (the allocation-free hot path; see PayloadBuffer),
 *  - BitCounter only counts, so `compressedBytes()` probes a block's
 *    compressed size without materializing a payload.
 * Both expose the same write()/bits() surface.
 */

#ifndef KAGURA_COMPRESS_BITSTREAM_HH
#define KAGURA_COMPRESS_BITSTREAM_HH

#include <cstdint>

#include "common/block.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace kagura
{

/** Counting-only sink: measures a payload without writing it. */
class BitCounter
{
  public:
    /** Account the low @p width bits of a value (width <= 64). */
    void
    write(std::uint64_t, unsigned width)
    {
        kagura_assert(width <= 64);
        bitCount += width;
    }

    /** Number of bits accounted so far. */
    std::uint64_t bits() const { return bitCount; }

  private:
    std::uint64_t bitCount = 0;
};

/**
 * Packs bits LSB-first into a caller-provided buffer. The buffer must
 * be zeroed and large enough for the worst-case payload (the sink
 * asserts); no allocation ever happens.
 */
class SpanBitWriter
{
  public:
    explicit SpanBitWriter(MutByteSpan buffer) : bytes(buffer) {}

    /** Append the low @p width bits of @p value (width <= 64). */
    void
    write(std::uint64_t value, unsigned width)
    {
        kagura_assert(width <= 64);
        kagura_assert(bitCount + width <= 8 * bytes.size());
        for (unsigned i = 0; i < width; ++i) {
            if ((value >> i) & 1)
                bytes[bitCount / 8] |=
                    static_cast<std::uint8_t>(1u << (bitCount % 8));
            ++bitCount;
        }
    }

    /** Number of bits written so far. */
    std::uint64_t bits() const { return bitCount; }

    /** The bytes written so far (last byte zero-padded). */
    ConstByteSpan
    data() const
    {
        return bytes.subspan(0, static_cast<std::size_t>(
                                    ceilDiv(bitCount, 8)));
    }

  private:
    MutByteSpan bytes;
    std::uint64_t bitCount = 0;
};

/** Sequential bit stream reader over a packed payload. */
class BitReader
{
  public:
    explicit BitReader(ConstByteSpan payload) : bytes(payload) {}

    /** Read the next @p width bits (width <= 64). */
    std::uint64_t
    read(unsigned width)
    {
        kagura_assert(width <= 64);
        std::uint64_t value = 0;
        for (unsigned i = 0; i < width; ++i) {
            const std::size_t byte = cursor / 8;
            kagura_assert(byte < bytes.size());
            if ((bytes[byte] >> (cursor % 8)) & 1)
                value |= (1ULL << i);
            ++cursor;
        }
        return value;
    }

    /** Bits consumed so far. */
    std::uint64_t consumed() const { return cursor; }

  private:
    ConstByteSpan bytes;
    std::uint64_t cursor = 0;
};

/** Sign-extend the low @p width bits of @p value to 64 bits. */
constexpr std::int64_t
signExtend(std::uint64_t value, unsigned width)
{
    const std::uint64_t mask = width >= 64 ? ~0ULL : (1ULL << width) - 1;
    value &= mask;
    if (width < 64 && (value >> (width - 1)) & 1)
        value |= ~mask;
    return static_cast<std::int64_t>(value);
}

/** True iff @p value fits in @p width bits as a signed integer. */
constexpr bool
fitsSigned(std::int64_t value, unsigned width)
{
    if (width >= 64)
        return true;
    const std::int64_t lo = -(1LL << (width - 1));
    const std::int64_t hi = (1LL << (width - 1)) - 1;
    return value >= lo && value <= hi;
}

} // namespace kagura

#endif // KAGURA_COMPRESS_BITSTREAM_HH
