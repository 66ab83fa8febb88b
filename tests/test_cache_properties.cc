/**
 * @file
 * Parameterised property tests for the compressed cache across the
 * geometry space the paper sweeps (sizes x ways x block sizes): the
 * compressed cache must be functionally transparent, never exceed its
 * data-space budget, and never exceed its tag budget.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "compress/compressor.hh"
#include "mem/nvm.hh"

namespace kagura
{
namespace
{

using Geometry = std::tuple<unsigned, unsigned, unsigned>; // size/ways/block

class CacheGeometry : public testing::TestWithParam<Geometry>
{
  protected:
    CacheConfig
    makeConfig() const
    {
        CacheConfig cfg;
        std::tie(cfg.sizeBytes, cfg.ways, cfg.blockSize) = GetParam();
        return cfg;
    }
};

TEST_P(CacheGeometry, FunctionalTransparency)
{
    // Property: loads through a compressed cache return exactly what
    // an uncached functional memory would, under a random mixed
    // workload with mixed-compressibility data.
    const CacheConfig cfg = makeConfig();
    Nvm nvm(NvmType::ReRam, 1 << 20);
    auto comp = makeCompressor(CompressorKind::Bdi);
    FixedGovernor governor(true);
    Cache cache(cfg, nvm, comp.get(), &governor);

    std::vector<std::uint8_t> reference(8192, 0);
    Rng rng(std::get<0>(GetParam()) * 131 + std::get<1>(GetParam()));
    // Seed some compressible regions.
    for (std::size_t i = 0; i < reference.size(); i += 4) {
        const std::uint32_t v =
            rng.chance(0.5) ? static_cast<std::uint32_t>(rng.below(100))
                            : static_cast<std::uint32_t>(rng.next());
        std::memcpy(reference.data() + i, &v, 4);
    }
    nvm.writeBytes(0, reference.data(), reference.size());

    Cycles now = 0;
    for (int op = 0; op < 6000; ++op) {
        const Addr addr = rng.below(reference.size() / 4) * 4;
        if (rng.chance(0.4)) {
            const auto v = static_cast<std::uint32_t>(rng.next());
            std::memcpy(reference.data() + addr, &v, 4);
            std::uint8_t bytes[4];
            std::memcpy(bytes, &v, 4);
            cache.access(addr, true, bytes, 4, ++now);
        } else {
            std::uint8_t out[4] = {0};
            cache.access(addr, false, out, 4, ++now);
            ASSERT_EQ(std::memcmp(out, reference.data() + addr, 4), 0)
                << "addr " << addr;
        }
        // Periodic power failure: flush + drop, like the platform.
        if (op % 1500 == 1499)
            cache.flushAndInvalidate();
    }
    cache.flushAndInvalidate();
    for (std::size_t i = 0; i < reference.size(); ++i) {
        std::uint8_t b;
        nvm.readBytes(i, &b, 1);
        ASSERT_EQ(b, reference[i]) << "NVM divergence at " << i;
    }
}

TEST_P(CacheGeometry, TagBudgetIsNeverExceeded)
{
    const CacheConfig cfg = makeConfig();
    Nvm nvm(NvmType::ReRam, 1 << 20);
    auto comp = makeCompressor(CompressorKind::Bdi);
    FixedGovernor governor(true);
    Cache cache(cfg, nvm, comp.get(), &governor);

    // Highly compressible data everywhere: maximum tag pressure.
    Cycles now = 0;
    for (Addr a = 0; a < 32768; a += cfg.blockSize)
        cache.access(a, false, nullptr, 4, ++now);
    EXPECT_LE(cache.validLines(),
              2 * cfg.ways * cfg.sets()); // the 2x-tags bound
}

TEST_P(CacheGeometry, StatsAreConsistent)
{
    const CacheConfig cfg = makeConfig();
    Nvm nvm(NvmType::ReRam, 1 << 20);
    auto comp = makeCompressor(CompressorKind::Bdi);
    FixedGovernor governor(true);
    Cache cache(cfg, nvm, comp.get(), &governor);

    Rng rng(0xc0ffee);
    Cycles now = 0;
    for (int op = 0; op < 3000; ++op) {
        const Addr addr = rng.below(4096 / 4) * 4;
        cache.access(addr, false, nullptr, 4, ++now);
    }
    const CacheStats &stats = cache.stats();
    EXPECT_EQ(stats.accesses, 3000u);
    EXPECT_EQ(stats.hits + stats.misses, stats.accesses);
    EXPECT_GE(stats.compressions, stats.compactions);
    EXPECT_LE(stats.missRate(), 1.0);
    EXPECT_GE(stats.missRate(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGeometries, CacheGeometry,
    testing::Values(Geometry{128, 2, 32}, Geometry{256, 1, 32},
                    Geometry{256, 2, 32}, Geometry{256, 4, 32},
                    Geometry{256, 8, 16}, Geometry{256, 2, 16},
                    Geometry{512, 2, 64}, Geometry{1024, 2, 32},
                    Geometry{4096, 2, 32}, Geometry{2048, 4, 64}),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "B_" +
               std::to_string(std::get<1>(info.param)) + "w_" +
               std::to_string(std::get<2>(info.param)) + "b";
    });

// Set counts that are not a power of two (3 sets each): the cache's
// tag layout and shadow tags take their % and / fallback.
INSTANTIATE_TEST_SUITE_P(
    NonPowerOfTwoSets, CacheGeometry,
    testing::Values(Geometry{288, 3, 32}, Geometry{192, 2, 32}),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "B_" +
               std::to_string(std::get<1>(info.param)) + "w_" +
               std::to_string(std::get<2>(info.param)) + "b";
    });

/** Every compressor must be functionally transparent in the cache. */
class CacheCompressorTransparency
    : public testing::TestWithParam<CompressorKind>
{
};

TEST_P(CacheCompressorTransparency, RandomWorkload)
{
    CacheConfig cfg;
    Nvm nvm(NvmType::ReRam, 1 << 20);
    auto comp = makeCompressor(GetParam());
    FixedGovernor governor(true);
    Cache cache(cfg, nvm, comp.get(), &governor);

    std::vector<std::uint8_t> reference(4096, 0);
    Rng rng(0x7e57 + static_cast<std::uint64_t>(GetParam()));
    for (std::size_t i = 0; i < reference.size(); i += 4) {
        const std::uint32_t v =
            rng.chance(0.6) ? static_cast<std::uint32_t>(rng.below(64))
                            : static_cast<std::uint32_t>(rng.next());
        std::memcpy(reference.data() + i, &v, 4);
    }
    nvm.writeBytes(0, reference.data(), reference.size());

    Cycles now = 0;
    for (int op = 0; op < 4000; ++op) {
        const Addr addr = rng.below(reference.size() / 4) * 4;
        if (rng.chance(0.35)) {
            const auto v = static_cast<std::uint32_t>(rng.next());
            std::memcpy(reference.data() + addr, &v, 4);
            std::uint8_t bytes[4];
            std::memcpy(bytes, &v, 4);
            cache.access(addr, true, bytes, 4, ++now);
        } else {
            std::uint8_t out[4] = {0};
            cache.access(addr, false, out, 4, ++now);
            ASSERT_EQ(std::memcmp(out, reference.data() + addr, 4), 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CacheCompressorTransparency,
                         testing::Values(CompressorKind::Bdi,
                                         CompressorKind::Fpc,
                                         CompressorKind::CPack,
                                         CompressorKind::Dzc),
                         [](const auto &info) {
                             std::string name =
                                 compressorKindName(info.param);
                             for (char &c : name) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return name;
                         });

} // namespace
} // namespace kagura
