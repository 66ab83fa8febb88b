/**
 * @file
 * Tests for the shadow tag arrays (ACC's benefit classifier) and the
 * two-phase ideal-oracle recorder/replayer of Section VIII-C.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/shadow_tags.hh"
#include "common/rng.hh"
#include "kagura/oracle.hh"

namespace kagura
{
namespace
{

// --- shadow tags -------------------------------------------------------

TEST(ShadowTags, ColdTouchMisses)
{
    ShadowTags shadow(4, 2, 32);
    EXPECT_EQ(shadow.touch(0), ShadowTags::depthMiss);
}

TEST(ShadowTags, RepeatTouchIsMru)
{
    ShadowTags shadow(4, 2, 32);
    shadow.touch(0);
    EXPECT_EQ(shadow.touch(0), 0u);
}

TEST(ShadowTags, IndexingMatchesADivisionReference)
{
    // Reference model: one MRU-first stack of 2 x ways tags per set,
    // indexed by block % sets with tag block / sets. Power-of-two set
    // counts take mask/shift in ShadowTags, others the fallback; both
    // must report the reference's depths.
    for (unsigned sets : {3u, 4u, 16u}) {
        const unsigned ways = 2;
        ShadowTags shadow(sets, ways, 32);
        std::vector<std::vector<std::uint64_t>> ref(sets);
        Rng rng(0x5ad0 + sets);
        for (int i = 0; i < 5000; ++i) {
            const Addr addr = rng.below(1 << 16);
            const std::uint64_t block = addr >> 5;
            std::vector<std::uint64_t> &stack = ref[block % sets];
            const std::uint64_t tag = block / sets;
            unsigned depth = ShadowTags::depthMiss;
            for (unsigned d = 0; d < stack.size(); ++d) {
                if (stack[d] == tag) {
                    depth = d;
                    break;
                }
            }
            if (depth != ShadowTags::depthMiss)
                stack.erase(stack.begin() + depth);
            else if (stack.size() == 2 * ways)
                stack.pop_back();
            stack.insert(stack.begin(), tag);
            ASSERT_EQ(shadow.touch(addr), depth)
                << "sets " << sets << " touch " << i;

            shadow.setCompressible(addr, i % 2 == 0);
            ASSERT_EQ(shadow.compressibleRating(addr), i % 2 ? -1 : 1);
        }
    }
}

TEST(ShadowTags, DepthTracksLruStack)
{
    ShadowTags shadow(4, 2, 32);
    // Four distinct blocks in set 0 (stride = sets * block = 128).
    shadow.touch(0 * 128);
    shadow.touch(1 * 128);
    shadow.touch(2 * 128);
    shadow.touch(3 * 128);
    // Oldest is now at depth 3.
    EXPECT_EQ(shadow.touch(0), 3u);
    // And it was promoted to MRU by the touch.
    EXPECT_EQ(shadow.touch(0), 0u);
}

TEST(ShadowTags, CapacityIsTwiceTheWays)
{
    ShadowTags shadow(4, 2, 32);
    for (unsigned k = 0; k < 5; ++k)
        shadow.touch(k * 128);
    // Block 0 fell off the 4-deep stack.
    EXPECT_EQ(shadow.touch(0), ShadowTags::depthMiss);
}

TEST(ShadowTags, SetsAreIndependent)
{
    ShadowTags shadow(4, 2, 32);
    shadow.touch(0);   // set 0
    shadow.touch(32);  // set 1
    EXPECT_EQ(shadow.touch(0), 0u);
    EXPECT_EQ(shadow.touch(32), 0u);
}

TEST(ShadowTags, InvalidateDropsEverything)
{
    ShadowTags shadow(4, 2, 32);
    shadow.touch(0);
    shadow.invalidateAll();
    EXPECT_EQ(shadow.touch(0), ShadowTags::depthMiss);
}

TEST(ShadowTags, CompressibilityRatingLifecycle)
{
    ShadowTags shadow(4, 2, 32);
    EXPECT_EQ(shadow.compressibleRating(0), 0); // unknown
    shadow.touch(0);
    EXPECT_EQ(shadow.compressibleRating(0), 0); // resident, unrated
    shadow.setCompressible(0, true);
    EXPECT_EQ(shadow.compressibleRating(0), 1);
    shadow.setCompressible(0, false);
    EXPECT_EQ(shadow.compressibleRating(0), -1);
    // The rating travels with the entry across promotions.
    shadow.setCompressible(0, true);
    shadow.touch(128);
    shadow.touch(0);
    EXPECT_EQ(shadow.compressibleRating(0), 1);
    // It dies when the entry is displaced.
    for (unsigned k = 1; k <= 4; ++k)
        shadow.touch(k * 128);
    EXPECT_EQ(shadow.compressibleRating(0), 0);
}

// --- oracle log --------------------------------------------------------

TEST(OracleLog, EverBeneficialVerdict)
{
    OracleLog log;
    log.addUseless(0x100);
    EXPECT_FALSE(log.worthCompressing(0x100, true));
    // One proven contribution flips the verdict for good (episodes
    // settle per power cycle, so useless episodes are expected even
    // for strongly beneficial blocks).
    log.addBeneficial(0x100);
    EXPECT_TRUE(log.worthCompressing(0x100, false));
    log.addUseless(0x100);
    log.addUseless(0x100);
    EXPECT_TRUE(log.worthCompressing(0x100, false));
}

TEST(OracleLog, UnknownAddressUsesFallback)
{
    OracleLog log;
    EXPECT_TRUE(log.worthCompressing(0x1, true));
    EXPECT_FALSE(log.worthCompressing(0x1, false));
}

// --- recorder ----------------------------------------------------------

TEST(OracleRecorder, CompressionWithHitIsBeneficial)
{
    OracleRecorder rec(nullptr);
    rec.noteCompression(0x100);
    rec.noteCompressionEnabledHit(0x100);
    rec.noteEviction(0x100, false);
    EXPECT_TRUE(rec.log().worthCompressing(0x100, false));
}

TEST(OracleRecorder, ContributionCountsAsBenefit)
{
    // Compressing a neighbour that frees capacity for another block's
    // hit is a beneficial compression too.
    OracleRecorder rec(nullptr);
    rec.noteCompression(0x100);
    rec.noteCompressionContribution(0x100);
    rec.noteCacheCleared();
    EXPECT_TRUE(rec.log().worthCompressing(0x100, false));
}

TEST(OracleRecorder, CompressionLostAtPowerFailureIsUseless)
{
    OracleRecorder rec(nullptr);
    rec.noteCompression(0x100);
    rec.noteCacheCleared(); // power failure before any reuse
    EXPECT_FALSE(rec.log().worthCompressing(0x100, true));
}

TEST(OracleRecorder, EvictionWithoutHitIsUseless)
{
    OracleRecorder rec(nullptr);
    rec.noteCompression(0x200);
    rec.noteEviction(0x200, true);
    EXPECT_FALSE(rec.log().worthCompressing(0x200, true));
}

TEST(OracleRecorder, RecompressionOpensFreshEpisode)
{
    OracleRecorder rec(nullptr);
    rec.noteCompression(0x300);
    rec.noteCompressionEnabledHit(0x300);
    rec.noteCompression(0x300); // settles episode 1 (beneficial)
    rec.noteCacheCleared();     // episode 2 useless
    EXPECT_TRUE(rec.log().worthCompressing(0x300, false));

    // A block whose episodes are all useless stays vetoed.
    OracleRecorder rec2(nullptr);
    rec2.noteCompression(0x400);
    rec2.noteCacheCleared();
    rec2.noteCompression(0x400);
    rec2.noteCacheCleared();
    EXPECT_FALSE(rec2.log().worthCompressing(0x400, true));
}

TEST(OracleRecorder, IncompressibleIsAlwaysUseless)
{
    OracleRecorder rec(nullptr);
    rec.noteIncompressible(0x400);
    EXPECT_FALSE(rec.log().worthCompressing(0x400, true));
}

TEST(OracleRecorder, TransparentToInnerGovernor)
{
    FixedGovernor fixed(false);
    OracleRecorder rec(&fixed);
    EXPECT_FALSE(rec.shouldCompress(0));
    fixed.set(true);
    EXPECT_TRUE(rec.shouldCompress(0));
}

// --- replayer ----------------------------------------------------------

TEST(OracleReplayer, VetoesUselessBlocks)
{
    OracleLog log;
    log.addUseless(0x100);
    log.addBeneficial(0x200);
    OracleReplayer replay(log, nullptr);
    EXPECT_FALSE(replay.shouldCompress(0x100));
    EXPECT_TRUE(replay.shouldCompress(0x200));
    EXPECT_TRUE(replay.shouldCompress(0x999)); // unknown: defer
    EXPECT_EQ(replay.vetoed(), 1u);
}

TEST(OracleReplayer, VetoGatesDatapathToo)
{
    OracleLog log;
    log.addUseless(0x100);
    OracleReplayer replay(log, nullptr);
    EXPECT_FALSE(replay.runCompressor(0x100));
}

TEST(OracleReplayer, HonoursInnerVeto)
{
    OracleLog log;
    log.addBeneficial(0x100);
    FixedGovernor off(false);
    OracleReplayer replay(log, &off);
    EXPECT_FALSE(replay.shouldCompress(0x100));
    EXPECT_EQ(replay.vetoed(), 0u); // the inner governor said no first
}

} // namespace
} // namespace kagura
