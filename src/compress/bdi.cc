#include "compress/bdi.hh"

#include <array>
#include <cstring>

#include "compress/bitstream.hh"

namespace kagura
{

namespace
{

/**
 * BDI encoding variants; the payload's 4-bit header. Equal-size
 * base/delta variants resolve to the earlier id.
 */
enum BdiVariant : unsigned
{
    BdiZeros = 0,  ///< all bytes zero
    BdiRepeat = 1, ///< one 8-byte value repeated
    BdiB8D1 = 2,
    BdiB8D2 = 3,
    BdiB8D4 = 4,
    BdiB4D1 = 5,
    BdiB4D2 = 6,
    BdiB2D1 = 7,
    BdiRaw = 8, ///< incompressible; stored verbatim
};

struct VariantSpec
{
    unsigned baseBytes;
    unsigned deltaBytes;
};

constexpr std::array<VariantSpec, 6> variantSpecs = {{
    {8, 1}, // BdiB8D1
    {8, 2}, // BdiB8D2
    {8, 4}, // BdiB8D4
    {4, 1}, // BdiB4D1
    {4, 2}, // BdiB4D2
    {2, 1}, // BdiB2D1
}};

constexpr unsigned headerBits = 4;

std::uint64_t
loadLittle(const std::uint8_t *src, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    return v;
}

void
storeLittle(std::uint8_t *dst, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Bits of a base/delta variant on a @p block_bytes block. */
constexpr std::uint64_t
variantBits(const VariantSpec &spec, std::size_t block_bytes)
{
    return headerBits + 8 * spec.baseBytes +
           (block_bytes / spec.baseBytes) * (1 + 8 * spec.deltaBytes);
}

/**
 * For every block length, the base/delta variants that divide it,
 * smallest encoding first; equal sizes keep the variantSpecs order,
 * so the first variant that fits is the smallest, and the earlier one
 * on a tie.
 */
struct VariantOrder
{
    std::array<std::uint8_t, variantSpecs.size()> specs{};
    unsigned count = 0;
};

constexpr std::array<VariantOrder, Block::maxBytes + 1>
makeVariantOrders()
{
    std::array<VariantOrder, Block::maxBytes + 1> orders{};
    for (std::size_t len = 1; len <= Block::maxBytes; ++len) {
        VariantOrder &order = orders[len];
        for (unsigned v = 0; v < variantSpecs.size(); ++v) {
            if (len % variantSpecs[v].baseBytes != 0)
                continue;
            // Insertion sort; strict '<' keeps ties in spec order.
            const std::uint64_t bits = variantBits(variantSpecs[v], len);
            unsigned at = order.count++;
            while (at > 0 &&
                   bits < variantBits(variantSpecs[order.specs[at - 1]],
                                      len)) {
                order.specs[at] = order.specs[at - 1];
                --at;
            }
            order.specs[at] = static_cast<std::uint8_t>(v);
        }
    }
    return orders;
}

constexpr std::array<VariantOrder, Block::maxBytes + 1> variantOrders =
    makeVariantOrders();

/**
 * Whether every value of @p block fits the (BaseBytes, DeltaBytes)
 * variant: as a delta to zero, or as a delta (modulo the base width)
 * to the explicit base -- the first value that does not fit against
 * zero, returned in @p base (zero when every value fits against zero).
 */
template <unsigned BaseBytes, unsigned DeltaBytes>
bool
fitsVariant(ConstByteSpan block, std::uint64_t &base)
{
    constexpr unsigned base_bits = 8 * BaseBytes;
    constexpr unsigned delta_bits = 8 * DeltaBytes;
    const std::size_t n = block.size() / BaseBytes;
    bool have_base = false;
    base = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t value =
            loadLittle(block.data() + i * BaseBytes, BaseBytes);
        if (fitsSigned(signExtend(value, base_bits), delta_bits))
            continue;
        if (!have_base) {
            base = value;
            have_base = true;
        } else if (!fitsSigned(signExtend(value - base, base_bits),
                               delta_bits)) {
            return false;
        }
    }
    return true;
}

using FitsFn = bool (*)(ConstByteSpan, std::uint64_t &);

/** fitsVariant() per variantSpecs entry. */
constexpr std::array<FitsFn, variantSpecs.size()> fitsFns = {{
    fitsVariant<8, 1>,
    fitsVariant<8, 2>,
    fitsVariant<8, 4>,
    fitsVariant<4, 1>,
    fitsVariant<4, 2>,
    fitsVariant<2, 1>,
}};

/** The encoding chooseVariant() settles on for one block. */
struct BdiChoice
{
    BdiVariant variant = BdiRaw;
    /** Explicit base (base/delta variants only). */
    std::uint64_t base = 0;
};

/**
 * The single BDI encoding decision, shared by compress() and
 * sizeBits(): zeros, then a repeated 8-byte value, then the smallest
 * base/delta variant every value fits (ties to the earlier variant),
 * else raw.
 */
BdiChoice
chooseVariant(ConstByteSpan block)
{
    kagura_assert(block.size() <= Block::maxBytes);
    std::uint8_t any = 0;
    for (std::uint8_t b : block)
        any |= b;
    if (any == 0)
        return {BdiZeros, 0};

    if (block.size() >= 16 && block.size() % 8 == 0) {
        const std::uint64_t first = loadLittle(block.data(), 8);
        bool repeated = true;
        for (std::size_t i = 8; i < block.size() && repeated; i += 8)
            repeated = loadLittle(block.data() + i, 8) == first;
        if (repeated)
            return {BdiRepeat, first};
    }

    const VariantOrder &order = variantOrders[block.size()];
    for (unsigned k = 0; k < order.count; ++k) {
        const unsigned v = order.specs[k];
        std::uint64_t base = 0;
        if (fitsFns[v](block, base))
            return {static_cast<BdiVariant>(BdiB8D1 + v), base};
    }
    return {BdiRaw, 0};
}

/** Exact payload bits of @p choice on a @p block_bytes block. */
std::uint64_t
choiceBits(const BdiChoice &choice, std::size_t block_bytes)
{
    switch (choice.variant) {
      case BdiZeros:
        return headerBits;
      case BdiRepeat:
        return headerBits + 64;
      case BdiRaw:
        return headerBits + 8 * block_bytes;
      default:
        return variantBits(variantSpecs[choice.variant - BdiB8D1],
                           block_bytes);
    }
}

/** Emit the payload for @p choice (the encoder's only writer). */
void
emit(ConstByteSpan block, const BdiChoice &choice, SpanBitWriter &out)
{
    out.write(choice.variant, headerBits);
    switch (choice.variant) {
      case BdiZeros:
        return;
      case BdiRepeat:
        out.write(choice.base, 64);
        return;
      case BdiRaw:
        for (std::uint8_t b : block)
            out.write(b, 8);
        return;
      default:
        break;
    }

    const VariantSpec &spec = variantSpecs[choice.variant - BdiB8D1];
    const unsigned base_bits = spec.baseBytes * 8;
    const unsigned delta_bits = spec.deltaBytes * 8;
    out.write(choice.base, base_bits);
    const std::size_t n = block.size() / spec.baseBytes;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t value =
            loadLittle(block.data() + i * spec.baseBytes, spec.baseBytes);
        const std::int64_t delta_zero = signExtend(value, base_bits);
        if (fitsSigned(delta_zero, delta_bits)) {
            out.write(0, 1); // zero base selector
            out.write(static_cast<std::uint64_t>(delta_zero), delta_bits);
        } else {
            // Deltas against the explicit base are taken modulo the
            // base width; chooseVariant() checked they fit.
            out.write(1, 1); // explicit base selector
            out.write(static_cast<std::uint64_t>(
                          signExtend(value - choice.base, base_bits)),
                      delta_bits);
        }
    }
}

} // namespace

std::uint64_t
BdiCompressor::compress(ConstByteSpan block, PayloadBuffer &out) const
{
    out.clear();
    SpanBitWriter sink(out.scratch());
    const BdiChoice choice = chooseVariant(block);
    emit(block, choice, sink);
    kagura_assert(sink.bits() == choiceBits(choice, block.size()));
    out.setBits(sink.bits());
    return sink.bits();
}

std::uint64_t
BdiCompressor::sizeBits(ConstByteSpan block) const
{
    return choiceBits(chooseVariant(block), block.size());
}

void
BdiCompressor::decompress(ConstByteSpan payload, MutByteSpan block) const
{
    BitReader in(payload);
    const unsigned variant = static_cast<unsigned>(in.read(headerBits));
    std::memset(block.data(), 0, block.size());

    if (variant == BdiZeros)
        return;

    if (variant == BdiRepeat) {
        const std::uint64_t value = in.read(64);
        for (std::size_t i = 0; i + 8 <= block.size(); i += 8)
            storeLittle(block.data() + i, value, 8);
        return;
    }

    if (variant == BdiRaw) {
        for (std::size_t i = 0; i < block.size(); ++i)
            block[i] = static_cast<std::uint8_t>(in.read(8));
        return;
    }

    kagura_assert(variant >= BdiB8D1 && variant <= BdiB2D1);
    const VariantSpec &spec = variantSpecs[variant - BdiB8D1];
    const std::uint64_t base = in.read(spec.baseBytes * 8);
    const std::size_t n = block.size() / spec.baseBytes;
    for (std::size_t i = 0; i < n; ++i) {
        const bool use_base = in.read(1) != 0;
        const std::uint64_t delta_raw = in.read(spec.deltaBytes * 8);
        const std::int64_t delta = signExtend(delta_raw,
                                              spec.deltaBytes * 8);
        const std::uint64_t value =
            (use_base ? base : 0) + static_cast<std::uint64_t>(delta);
        storeLittle(block.data() + i * spec.baseBytes, value,
                    spec.baseBytes);
    }
}

} // namespace kagura
