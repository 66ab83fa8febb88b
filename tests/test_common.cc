/**
 * @file
 * Unit tests for the common infrastructure: RNG determinism, stats
 * accumulators, histograms, the table printers, and AddrMap.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/addr_map.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace kagura
{
namespace
{

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 8), 0u);
    EXPECT_EQ(ceilDiv(1, 8), 1u);
    EXPECT_EQ(ceilDiv(8, 8), 1u);
    EXPECT_EQ(ceilDiv(9, 8), 2u);
    EXPECT_EQ(ceilDiv(64, 8), 8u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(32), 5u);
    EXPECT_EQ(floorLog2(256), 8u);
}

TEST(Types, EnergyConversionRoundTrips)
{
    EXPECT_DOUBLE_EQ(joulesToPico(picoToJoules(123.456)), 123.456);
    EXPECT_DOUBLE_EQ(picoToJoules(1e12), 1.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(37), 37u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.range(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.real();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(13);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        if (rng.chance(0.25))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.01);
}

TEST(Rng, MixSeedsIsStable)
{
    EXPECT_EQ(mixSeeds(1, 2), mixSeeds(1, 2));
    EXPECT_NE(mixSeeds(1, 2), mixSeeds(2, 1));
}

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.total(), 10.0);
    EXPECT_NEAR(s.stddev(), 1.1180, 1e-3);
}

TEST(RunningStat, EmptyIsSafe)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, ResetForgets)
{
    RunningStat s;
    s.add(100.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(Histogram, BucketsAndDensity)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_EQ(h.samples(), 10u);
    for (std::size_t b = 0; b < h.size(); ++b) {
        EXPECT_EQ(h.bucketCount(b), 1u);
        EXPECT_DOUBLE_EQ(h.density(b), 0.1);
    }
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(1e9);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
}

TEST(Histogram, BucketEdges)
{
    Histogram h(10.0, 20.0, 5);
    EXPECT_DOUBLE_EQ(h.bucketLow(0), 10.0);
    EXPECT_DOUBLE_EQ(h.bucketLow(4), 18.0);
}

TEST(StatsHelpers, RelativeDifference)
{
    EXPECT_DOUBLE_EQ(relativeDifference(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(relativeDifference(10.0, 5.0), 0.5);
    EXPECT_DOUBLE_EQ(relativeDifference(5.0, 10.0), 0.5);
}

TEST(StatsHelpers, PercentChange)
{
    EXPECT_DOUBLE_EQ(percentChange(110.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(percentChange(90.0, 100.0), -10.0);
    EXPECT_DOUBLE_EQ(percentChange(5.0, 0.0), 0.0);
}

TEST(StatsHelpers, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
    EXPECT_NEAR(geoMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geoMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(TextTable, FormatsNumbers)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(4.739, 2), "+4.74%");
    EXPECT_EQ(TextTable::pct(-1.5, 1), "-1.5%");
}

TEST(TextTable, PrintsWithoutCrashing)
{
    TextTable t;
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4", "extra"});
    std::FILE *devnull = std::fopen("/dev/null", "w");
    ASSERT_NE(devnull, nullptr);
    t.print(devnull);
    std::fclose(devnull);
}

TEST(BarChart, PrintsWithoutCrashing)
{
    BarChart chart("test", "%");
    chart.add("a", "s1", 1.0);
    chart.add("b", "s1", -2.0);
    std::FILE *devnull = std::fopen("/dev/null", "w");
    ASSERT_NE(devnull, nullptr);
    chart.print(20, devnull);
    std::fclose(devnull);
}

TEST(AddrMap, MatchesAStandardMapUnderRandomInsertsAndErases)
{
    // Few distinct keys over a wide range, so erases hit long probe
    // runs and the backward shift has entries to move.
    AddrMap<unsigned> map;
    std::unordered_map<Addr, unsigned> model;
    Rng rng(0xadd7);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.chance(0.01) ? ~0ULL : rng.below(200) * 32;
        if (rng.chance(0.4)) {
            map.erase(addr);
            model.erase(addr);
        } else {
            ++map[addr];
            ++model[addr];
        }
        if (i % 5000 == 4999) {
            map.clear();
            model.clear();
        }
        ASSERT_EQ(map.size(), model.size());
    }
    for (Addr addr = 0; addr < 200 * 32; addr += 32) {
        const unsigned *value = map.find(addr);
        const auto it = model.find(addr);
        ASSERT_EQ(value != nullptr, it != model.end()) << addr;
        if (value) {
            EXPECT_EQ(*value, it->second) << addr;
        }
    }
    std::size_t visited = 0;
    map.forEach([&](Addr addr, unsigned value) {
        ++visited;
        EXPECT_EQ(model.at(addr), value);
    });
    EXPECT_EQ(visited, model.size());
}

TEST(AddrMap, EqualityIgnoresInsertionOrder)
{
    AddrMap<int> a, b;
    for (Addr addr = 0; addr < 100; ++addr) {
        a[addr * 64] = static_cast<int>(addr);
        b[(99 - addr) * 64] = static_cast<int>(99 - addr);
    }
    EXPECT_TRUE(a == b);
    b[64] = 7;
    EXPECT_FALSE(a == b);
    b.erase(64);
    EXPECT_FALSE(a == b);
    EXPECT_TRUE(AddrMap<int>{} == AddrMap<int>{});
}

TEST(BootstrapCi, SameSeedGivesTheSameInterval)
{
    const std::vector<std::vector<double>> groups = {
        {0.3, -0.1, 0.8, 0.2, -0.4}, {1.0, 0.5}, {-0.2, 0.1, 0.0}};
    const BootstrapCi a = bootstrapMeanCi(groups, 42);
    const BootstrapCi b = bootstrapMeanCi(groups, 42);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_LE(a.lo, a.mean);
    EXPECT_GE(a.hi, a.mean);
    const BootstrapCi c = bootstrapMeanCi(groups, 43);
    EXPECT_EQ(a.mean, c.mean);
    EXPECT_TRUE(a.lo != c.lo || a.hi != c.hi)
        << "the seed should drive the resampling";
}

TEST(BootstrapCi, AllPositiveDeltasResolveAboveZero)
{
    const BootstrapCi ci =
        bootstrapMeanCi({{0.2, 0.5, 0.1, 0.9, 0.3, 0.4}}, 7);
    EXPECT_GT(ci.lo, 0.0);
    EXPECT_TRUE(ci.resolved());
    EXPECT_NEAR(ci.mean, 0.4, 1e-12);
}

TEST(BootstrapCi, SymmetricDeltasAreUnresolved)
{
    const BootstrapCi ci = bootstrapMeanCi(
        {{-1.0, 1.0, -0.5, 0.5, -2.0, 2.0}, {0.3, -0.3}}, 7);
    EXPECT_LT(ci.lo, 0.0);
    EXPECT_GT(ci.hi, 0.0);
    EXPECT_FALSE(ci.resolved());
    EXPECT_NEAR(ci.mean, 0.0, 1e-12);
}

} // namespace
} // namespace kagura
