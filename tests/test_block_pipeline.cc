/**
 * @file
 * The allocation-free block pipeline: Block value semantics, property
 * round-trips for every compressor over the span API, PayloadBuffer
 * capacity under adversarial inputs, and an allocation-counting hook
 * proving the cache hit/fill/compress path never touches the heap.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "cache/cache.hh"
#include "cache/governor.hh"
#include "common/block.hh"
#include "common/rng.hh"
#include "compress/compressor.hh"
#include "mem/nvm.hh"

// ---------------------------------------------------------------------
// Binary-wide allocation counter. Every operator new in this test
// binary bumps the counter, so a test can snapshot it around a hot
// region and assert the region allocated nothing.
// ---------------------------------------------------------------------

static std::atomic<std::uint64_t> g_heapAllocations{0};

static void *
countedAlloc(std::size_t size)
{
    ++g_heapAllocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace kagura
{
namespace
{

// ---------------------------------------------------------------------
// Block value semantics
// ---------------------------------------------------------------------

TEST(Block, DefaultIsEmpty)
{
    Block b;
    EXPECT_EQ(b.size(), 0u);
    EXPECT_TRUE(b.empty());
    EXPECT_TRUE(b.span().empty());
}

TEST(Block, SizedConstructionZeroFills)
{
    Block b(32);
    EXPECT_EQ(b.size(), 32u);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b[i], 0u);
}

TEST(Block, CopiesFromSpanAndComparesByValue)
{
    const std::vector<std::uint8_t> bytes = {1, 2, 3, 4};
    Block a{ConstByteSpan{bytes}};
    Block b{ConstByteSpan{bytes}};
    EXPECT_EQ(a.size(), 4u);
    EXPECT_EQ(a, b);
    b[2] = 9;
    EXPECT_FALSE(a == b);
}

TEST(Block, ResizeZeroesNewlyExposedBytes)
{
    Block b(8);
    for (std::size_t i = 0; i < 8; ++i)
        b[i] = 0xff;
    b.resize(4);
    b.resize(8); // bytes 4..7 were 0xff; must come back zeroed
    for (std::size_t i = 4; i < 8; ++i)
        EXPECT_EQ(b[i], 0u) << i;
}

// ---------------------------------------------------------------------
// Compressor round-trip properties (every algorithm, every pattern
// class, every supported geometry).
// ---------------------------------------------------------------------

enum class Pattern
{
    AllZero,
    Random,
    RepeatedDelta,
    Adversarial, ///< alternating wide-random / narrow words
};

Block
makePattern(Pattern pattern, std::size_t size, Rng &rng)
{
    Block block(size);
    switch (pattern) {
      case Pattern::AllZero:
        break;
      case Pattern::Random:
        for (std::size_t i = 0; i < size; ++i)
            block[i] = static_cast<std::uint8_t>(rng.next());
        break;
      case Pattern::RepeatedDelta: {
        // Pointer-like 32-bit values marching in small strides.
        std::uint32_t v = 0x10008000u + static_cast<std::uint32_t>(
                                            rng.below(256));
        for (std::size_t i = 0; i + 4 <= size; i += 4) {
            block[i] = static_cast<std::uint8_t>(v);
            block[i + 1] = static_cast<std::uint8_t>(v >> 8);
            block[i + 2] = static_cast<std::uint8_t>(v >> 16);
            block[i + 3] = static_cast<std::uint8_t>(v >> 24);
            v += 4 + static_cast<std::uint32_t>(rng.below(8));
        }
        break;
      }
      case Pattern::Adversarial:
        // Defeat every dictionary/delta trick on odd words, keep even
        // words tiny: stresses per-word literal paths and the payload
        // upper bound.
        for (std::size_t i = 0; i + 4 <= size; i += 4) {
            if ((i / 4) % 2 == 0) {
                block[i] = static_cast<std::uint8_t>(rng.below(4));
            } else {
                for (unsigned j = 0; j < 4; ++j)
                    block[i + j] =
                        static_cast<std::uint8_t>(rng.next() | 0x80);
            }
        }
        break;
    }
    return block;
}

TEST(CompressorProperties, RoundTripAcrossPatternsAndGeometries)
{
    Rng rng(0xb10c);
    for (CompressorKind kind : compressorKindNames) {
        const auto comp = makeCompressor(kind);
        for (const std::size_t size : {16u, 32u, 64u}) {
            for (const Pattern pattern :
                 {Pattern::AllZero, Pattern::Random,
                  Pattern::RepeatedDelta, Pattern::Adversarial}) {
                for (int trial = 0; trial < 8; ++trial) {
                    const Block block = makePattern(pattern, size, rng);

                    PayloadBuffer payload;
                    const std::uint64_t bits =
                        comp->compress(block.span(), payload);

                    // sizeBits() (counting sink) must agree with the
                    // materializing encoder bit-for-bit.
                    ASSERT_EQ(comp->sizeBits(block.span()), bits)
                        << comp->name() << " size=" << size;
                    ASSERT_EQ(payload.bits(), bits);

                    // compressedBytes() agrees and never exceeds raw.
                    const std::uint64_t expect =
                        std::min<std::uint64_t>(ceilDiv(bits, 8), size);
                    ASSERT_EQ(comp->compressedBytes(block.span()), expect);
                    ASSERT_LE(comp->compressedBytes(block.span()), size);

                    // Round trip into a deliberately dirty destination.
                    Block restored(size);
                    for (std::size_t i = 0; i < size; ++i)
                        restored[i] = 0xa5;
                    comp->decompress(payload.span(), restored.span());
                    ASSERT_EQ(restored, block)
                        << comp->name() << " size=" << size << " pattern="
                        << static_cast<int>(pattern);
                }
            }
        }
    }
}

TEST(CompressorProperties, WorstCasePayloadFitsPayloadBuffer)
{
    // Hammer every algorithm with adversarial and random 64 B blocks;
    // the SpanBitWriter asserts on overflow, so surviving the loop
    // proves PayloadBuffer::capacityBytes covers the worst case.
    Rng rng(0xcafe);
    for (CompressorKind kind : compressorKindNames) {
        const auto comp = makeCompressor(kind);
        std::uint64_t worst = 0;
        for (int trial = 0; trial < 200; ++trial) {
            const Block block = makePattern(
                trial % 2 ? Pattern::Adversarial : Pattern::Random,
                Block::maxBytes, rng);
            PayloadBuffer payload;
            comp->compress(block.span(), payload);
            worst = std::max(worst, payload.bytesUsed());
        }
        EXPECT_LE(worst, PayloadBuffer::capacityBytes) << comp->name();
    }
}

TEST(CompressorProperties, VectorConveniencesMatchSpanApi)
{
    Rng rng(0x77);
    const auto comp = makeCompressor(CompressorKind::Bdi);
    const Block block = makePattern(Pattern::RepeatedDelta, 32, rng);
    const std::vector<std::uint8_t> vec(block.span().begin(),
                                        block.span().end());

    const CompressionResult result = comp->compress(vec);
    EXPECT_EQ(result.sizeBits, comp->sizeBits(vec));
    const auto restored = comp->decompress(result.payload, vec.size());
    EXPECT_EQ(restored, vec);
}

// ---------------------------------------------------------------------
// The hot path never allocates.
// ---------------------------------------------------------------------

TEST(AllocationFree, CacheAccessPathNeverTouchesTheHeap)
{
    Nvm nvm(NvmType::ReRam, 64 * 1024);
    const auto comp = makeCompressor(CompressorKind::Bdi);
    FixedGovernor governor(true);
    CacheConfig cfg;
    cfg.sizeBytes = 256;
    cfg.ways = 2;
    cfg.blockSize = 32;
    Cache cache(cfg, nvm, comp.get(), &governor);

    // Seed NVM with compressible-and-not data.
    Rng rng(0xfeed);
    for (Addr a = 0; a < 64 * 1024; a += 8) {
        const std::uint64_t v = (a / 8) % 3 ? a : rng.next();
        std::uint8_t bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
        nvm.writeBytes(a, bytes, 8);
    }

    // Warm up once (first-touch laziness elsewhere must not count).
    std::uint8_t buf[8] = {};
    cache.access(0, false, buf, 4, 0);

    const std::uint64_t before = g_heapAllocations.load();
    Cycles now = 1;
    for (int pass = 0; pass < 4; ++pass) {
        for (Addr a = 0; a < 16 * 1024; a += 24) {
            const Addr addr = a - (a % 4);
            const bool write = (a / 24) % 3 == 0;
            if (write) {
                std::uint8_t v[4] = {1, 2, 3, 4};
                cache.access(addr % (64 * 1024 - 8), true, v, 4, now++);
            } else {
                cache.access(addr % (64 * 1024 - 8), false, buf, 4,
                             now++);
            }
        }
        cache.flushAndInvalidate();
    }
    const std::uint64_t after = g_heapAllocations.load();
    EXPECT_EQ(after - before, 0u)
        << "hit/fill/compress/flush path allocated";
}

TEST(AllocationFree, CompressAndProbeNeverTouchTheHeap)
{
    Rng rng(0x9a);
    // Materialize inputs and compressors before measuring.
    std::vector<Block> blocks;
    for (int i = 0; i < 16; ++i)
        blocks.push_back(makePattern(
            static_cast<Pattern>(i % 4), Block::maxBytes, rng));
    std::vector<std::unique_ptr<Compressor>> comps;
    for (CompressorKind kind : compressorKindNames)
        comps.push_back(makeCompressor(kind));

    PayloadBuffer payload;
    Block restored(Block::maxBytes);
    const std::uint64_t before = g_heapAllocations.load();
    std::uint64_t checksum = 0;
    for (const auto &comp : comps) {
        for (const Block &block : blocks) {
            checksum += comp->sizeBits(block.span());
            checksum += comp->compress(block.span(), payload);
            comp->decompress(payload.span(), restored.span());
            checksum += restored[0];
        }
    }
    const std::uint64_t after = g_heapAllocations.load();
    EXPECT_EQ(after - before, 0u) << "checksum " << checksum;
}

} // namespace
} // namespace kagura
