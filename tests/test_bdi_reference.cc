/**
 * @file
 * BDI against a reference encoder. The production encoder makes one
 * closed-form variant decision (compress/bdi.cc: chooseVariant); the
 * reference below probes every variant instead: it encodes each
 * base/delta variant into a counting sink and keeps the smallest (the
 * earlier variant on a tie). Both must pick the same variant and the
 * same bits -- and, since the payload is a function of the variant,
 * the same payload bytes -- on a seeded corpus of every block length
 * and on every block of the workload suite's initial memory images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "compress/bdi.hh"
#include "compress/bitstream.hh"
#include "core/workload.hh"

namespace kagura
{
namespace
{

namespace reference
{

constexpr unsigned zeros = 0, repeat = 1, firstDelta = 2, raw = 8;
constexpr unsigned headerBits = 4;

struct Spec
{
    unsigned baseBytes;
    unsigned deltaBytes;
};

constexpr std::array<Spec, 6> specs = {
    {{8, 1}, {8, 2}, {8, 4}, {4, 1}, {4, 2}, {2, 1}}};

std::uint64_t
load(const std::uint8_t *src, unsigned bytes)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    return v;
}

/** One base/delta variant into @p out; false if a value fits neither base. */
template <typename Sink>
bool
tryVariant(ConstByteSpan block, unsigned id, const Spec &spec, Sink &out)
{
    const std::size_t n = block.size() / spec.baseBytes;
    if (n * spec.baseBytes != block.size() || n == 0)
        return false;
    const unsigned delta_bits = spec.deltaBytes * 8;
    std::uint64_t base = 0;
    bool have_base = false;
    std::vector<std::uint64_t> values(n);
    for (std::size_t i = 0; i < n; ++i) {
        values[i] = load(block.data() + i * spec.baseBytes, spec.baseBytes);
        if (!have_base &&
            !fitsSigned(signExtend(values[i], spec.baseBytes * 8),
                        delta_bits)) {
            base = values[i];
            have_base = true;
        }
    }
    out.write(id, headerBits);
    out.write(base, spec.baseBytes * 8);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t delta_zero =
            signExtend(values[i], spec.baseBytes * 8);
        const std::int64_t delta_base =
            signExtend(values[i] - base, spec.baseBytes * 8);
        if (fitsSigned(delta_zero, delta_bits)) {
            out.write(0, 1);
            out.write(static_cast<std::uint64_t>(delta_zero), delta_bits);
        } else if (fitsSigned(delta_base, delta_bits)) {
            out.write(1, 1);
            out.write(static_cast<std::uint64_t>(delta_base), delta_bits);
        } else {
            return false;
        }
    }
    return true;
}

template <typename Sink>
void
encode(ConstByteSpan block, Sink &out)
{
    bool all_zero = true;
    for (std::uint8_t b : block)
        all_zero = all_zero && b == 0;
    if (all_zero) {
        out.write(zeros, headerBits);
        return;
    }
    if (block.size() >= 16 && block.size() % 8 == 0) {
        const std::uint64_t first = load(block.data(), 8);
        bool repeated = true;
        for (std::size_t i = 8; i < block.size(); i += 8)
            repeated = repeated && load(block.data() + i, 8) == first;
        if (repeated) {
            out.write(repeat, headerBits);
            out.write(first, 64);
            return;
        }
    }
    bool have_best = false;
    unsigned best = 0;
    std::uint64_t best_bits = 0;
    for (unsigned v = 0; v < specs.size(); ++v) {
        BitCounter probe;
        if (tryVariant(block, firstDelta + v, specs[v], probe) &&
            (!have_best || probe.bits() < best_bits)) {
            have_best = true;
            best = v;
            best_bits = probe.bits();
        }
    }
    if (have_best) {
        ASSERT_TRUE(tryVariant(block, firstDelta + best, specs[best], out));
        return;
    }
    out.write(raw, headerBits);
    for (std::uint8_t b : block)
        out.write(b, 8);
}

} // namespace reference

/** Variant ids the reference and production encoders chose, per id. */
using VariantTally = std::array<std::size_t, reference::raw + 1>;

/**
 * Encode @p block both ways and compare variant, bits, payload bytes
 * and sizeBits(); tallies the variant so callers can check coverage.
 */
void
expectSameEncoding(const BdiCompressor &bdi, ConstByteSpan block,
                   VariantTally &tally, const std::string &what)
{
    PayloadBuffer ref_buf;
    SpanBitWriter ref_sink(ref_buf.scratch());
    reference::encode(block, ref_sink);
    const std::uint64_t ref_bits = ref_sink.bits();
    const ConstByteSpan ref_payload = ref_sink.data();

    PayloadBuffer buf;
    const std::uint64_t bits = bdi.compress(block, buf);
    ASSERT_FALSE(ref_payload.empty()) << what;
    const unsigned ref_variant = ref_payload[0] & 0xf;
    const unsigned variant = buf.span()[0] & 0xf;
    ASSERT_EQ(variant, ref_variant) << what;
    ASSERT_EQ(bits, ref_bits) << what;
    ASSERT_EQ(bdi.sizeBits(block), ref_bits) << what;
    ASSERT_EQ(buf.span().size(), ref_payload.size()) << what;
    ASSERT_EQ(std::memcmp(buf.span().data(), ref_payload.data(),
                          ref_payload.size()),
              0)
        << what;
    ++tally[variant];
}

/** Little-endian store of the low @p bytes of @p v. */
void
put(std::vector<std::uint8_t> &block, std::size_t at, std::uint64_t v,
    unsigned bytes)
{
    for (unsigned i = 0; i < bytes && at + i < block.size(); ++i)
        block[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/**
 * One corpus block of @p len bytes: zeros, a repeated value, narrow
 * deltas around a wide base at each base width (some values near zero
 * for the immediate selector), mixed-sign small values, an equal-size
 * tie between two variants, or random.
 */
std::vector<std::uint8_t>
corpusBlock(unsigned pattern, std::size_t len, Rng &rng)
{
    std::vector<std::uint8_t> block(len, 0);
    static constexpr unsigned widths[] = {2, 4, 8};
    switch (pattern) {
      case 0: // zeros
        break;
      case 1: { // one 8-byte value repeated
          const std::uint64_t v = rng.next();
          for (std::size_t i = 0; i < len; i += 8)
              put(block, i, v, 8);
          break;
      }
      case 2: case 3: case 4: { // narrow deltas at base width 2/4/8
          const unsigned width = widths[pattern - 2];
          const std::uint64_t base = rng.next() | (1ULL << (8 * width - 2));
          // A delta width the base width has a variant for.
          const unsigned delta_bytes =
              width == 2 ? 1
                         : 1u << rng.below(width == 4 ? 2 : 3);
          const std::uint64_t span = 1ULL << (8 * delta_bytes - 1);
          for (std::size_t i = 0; i < len; i += width) {
              const std::uint64_t delta = rng.below(span) - span / 2;
              put(block, i, rng.below(4) == 0 ? delta : base + delta,
                  width);
          }
          break;
      }
      case 5: { // mixed-sign small values at a random width
          const unsigned width = widths[rng.below(3)];
          for (std::size_t i = 0; i < len; i += width) {
              const std::int64_t v =
                  static_cast<std::int64_t>(rng.below(512)) - 256;
              put(block, i, static_cast<std::uint64_t>(v), width);
          }
          break;
      }
      case 6: // 32-bit words 0x10000 or 0x100c8: B4D2 and B2D1 both fit,
              // and at 64 bytes they tie (308 bits) -- B4D2 must win
        for (std::size_t i = 0; i < len; i += 4)
            put(block, i, 0x10000 + 200 * rng.below(2), 4);
        break;
      default: // random
        for (std::uint8_t &b : block)
            b = static_cast<std::uint8_t>(rng.next());
        break;
    }
    // Occasionally spoil one byte so near-misses reach the next variant.
    if (len > 0 && rng.below(4) == 0)
        block[rng.below(len)] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
    return block;
}

TEST(BdiReference, SeededCorpusMatchesAtEveryLength)
{
    const BdiCompressor bdi;
    VariantTally tally{};
    Rng rng(0xbd1);
    for (std::size_t len = 1; len <= Block::maxBytes; ++len) {
        for (unsigned pattern = 0; pattern < 8; ++pattern) {
            for (unsigned rep = 0; rep < 60; ++rep) {
                const std::vector<std::uint8_t> block =
                    corpusBlock(pattern, len, rng);
                expectSameEncoding(bdi, block, tally,
                                   "len " + std::to_string(len) +
                                       " pattern " +
                                       std::to_string(pattern) + " rep " +
                                       std::to_string(rep));
                if (HasFatalFailure())
                    return;
            }
        }
    }
    // The corpus reaches every encoding the format has.
    for (unsigned v = 0; v < tally.size(); ++v)
        EXPECT_GT(tally[v], 0u) << "variant " << v << " never chosen";
}

TEST(BdiReference, EveryWorkloadImageBlockMatches)
{
    const BdiCompressor bdi;
    VariantTally tally{};
    std::size_t blocks = 0;
    for (const std::string &name : workloadNames()) {
        const std::map<Addr, std::uint8_t> &image =
            cachedWorkload(name).initialImage();
        for (const std::size_t block_bytes : {32, 64}) {
            // Every aligned block the image touches, untouched bytes 0.
            std::vector<std::uint8_t> block(block_bytes, 0);
            auto it = image.begin();
            while (it != image.end()) {
                const Addr base = it->first / block_bytes * block_bytes;
                std::fill(block.begin(), block.end(), 0);
                for (; it != image.end() && it->first < base + block_bytes;
                     ++it)
                    block[it->first - base] = it->second;
                expectSameEncoding(bdi, block, tally,
                                   name + " block " + std::to_string(base));
                if (HasFatalFailure())
                    return;
                ++blocks;
            }
        }
    }
    EXPECT_GT(blocks, 1000u);
}

} // namespace
} // namespace kagura
