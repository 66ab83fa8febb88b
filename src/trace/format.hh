/**
 * @file
 * The kagura.trace/v1 on-disk memory-trace format.
 *
 * A trace file is a serialized Workload: the committed micro-op
 * stream plus the initial memory image, so replaying a recorded
 * kernel is bit-identical to re-running it. Layout (little-endian):
 *
 *   magic      "KGTRACE1"                     8 bytes
 *   version    u16 (= formatVersion)
 *   flags      u16 (reserved, 0)
 *   blockSize  u32 (informational: recording cache block size)
 *   opCount    u64
 *   imageExtents u64   (contiguous byte runs in the initial image)
 *   imageBytes u64     (total image bytes across extents)
 *   opsBytes   u64     (encoded size of the op payload)
 *   imagePayloadBytes u64 (encoded size of the image payload)
 *   checksum   u64     (FNV-1a over both payloads, ops then image)
 *   nameLen    u16 + workload name bytes
 *   --- op payload (opsBytes) ---
 *   --- image payload (imagePayloadBytes) ---
 *
 * Fixed-width header fields let the writer stream ops through a
 * bounded buffer and back-patch the counts on finish; everything
 * behind the header is delta/varint/RLE coded (no external
 * compression library):
 *
 * Op records -- one control byte, then varint fields as needed.
 * "Sequential" means the op's PC is exactly where the previous op
 * ended (the common case; loop back-edges break it):
 *   bits 0-1  kind: 0 = ALU, 1 = load, 2 = store
 *   ALU:   bit 2 = sequential; bits 3-7 hold count when 1..31, else
 *          0 and a varint count follows; a zigzag varint pc delta
 *          follows when not sequential.
 *   mem:   bits 2-4 hold size - 1 (1..8 bytes); bit 5 = sequential,
 *          else a zigzag varint pc delta follows; then a zigzag
 *          varint data-address delta (vs. the previous memory op);
 *          stores append a varint value.
 *
 * PCs fit 32 bits (the modelled ARMv7-M's address space); a decoded
 * PC of 2^32 or more is rejected.
 *
 * Image payload -- imageExtents runs, each:
 *   zigzag varint gap from the previous extent's end address (never
 *   negative: extents ascend without overlapping)
 *   varint extent length (the extent ends below 2^64)
 *   RLE tokens covering exactly that many bytes: varint n, where
 *   n odd = a run of (n >> 1) + 1 copies of the next byte, and
 *   n even = (n >> 1) + 1 literal bytes follow.
 */

#ifndef KAGURA_TRACE_FORMAT_HH
#define KAGURA_TRACE_FORMAT_HH

#include <cstdint>
#include <string>

namespace kagura
{
namespace trace
{

/** 8-byte file magic; the trailing digit is the major version. */
constexpr char fileMagic[8] = {'K', 'G', 'T', 'R', 'A', 'C', 'E', '1'};

/** Bump on any encoding change; old files are then rejected. */
constexpr std::uint16_t formatVersion = 1;

/** Fixed byte size of the header up to (not including) the name. */
constexpr std::size_t fixedHeaderBytes =
    8 + 2 + 2 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 2;

/** Op-kind values held in the control byte's low two bits. */
enum class OpKind : std::uint8_t
{
    Alu = 0,
    Load = 1,
    Store = 2,
};

/** 64-bit FNV-1a (local copy so src/trace stays below src/runner). */
constexpr std::uint64_t
fnvOffset()
{
    return 0xcbf29ce484222325ULL;
}

/** Fold @p bytes into a running FNV-1a state. */
inline std::uint64_t
fnvFold(std::uint64_t state, const void *bytes, std::size_t count)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < count; ++i) {
        state ^= p[i];
        state *= 0x100000001b3ULL;
    }
    return state;
}

/** Zigzag-map a signed delta into an unsigned varint payload. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Invert zigzagEncode. */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append @p v to @p out as a LEB128 varint (1-10 bytes). */
inline void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

} // namespace trace
} // namespace kagura

#endif // KAGURA_TRACE_FORMAT_HH
