/**
 * @file
 * Tests for the src/repl replacement subsystem: victim selection
 * semantics of the classic policies (LRU / FIFO / random), interface
 * property tests (victim legality, determinism across worker counts,
 * state reset on power failure), the historical LRU-first compression
 * rule, and the size-aware OPTgen oracle's ring-buffer liveness
 * intervals against hand-computed schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/governor.hh"
#include "common/rng.hh"
#include "compress/compressor.hh"
#include "mem/nvm.hh"
#include "repl/policy.hh"
#include "repl/size_optgen.hh"
#include "runner/result_codec.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace kagura
{
namespace
{

struct ReplacementTest : testing::Test
{
    ReplacementTest() : nvm(NvmType::ReRam, 1 << 20) {}

    Cache
    makeCache(ReplKind policy)
    {
        CacheConfig cfg;
        cfg.replacement = policy;
        return Cache(cfg, nvm);
    }

    Nvm nvm;
    Cycles now = 0;
};

TEST_F(ReplacementTest, PolicyNames)
{
    // The first three spellings are pinned by committed cache
    // fixtures and goldens; never change them without a salt bump.
    EXPECT_STREQ(replacementPolicyName(ReplKind::Lru), "LRU");
    EXPECT_STREQ(replacementPolicyName(ReplKind::Fifo), "FIFO");
    EXPECT_STREQ(replacementPolicyName(ReplKind::Random),
                 "random");
    EXPECT_STREQ(replacementPolicyName(ReplKind::Camp), "CAMP");
    EXPECT_STREQ(replacementPolicyName(ReplKind::Crrip), "CRRIP");
    EXPECT_STREQ(replacementPolicyName(ReplKind::SizeOptgen),
                 "size-optgen");
    EXPECT_STREQ(replacementPolicyName(ReplKind::Dish), "dish");
    for (ReplKind kind : replKindNames) {
        const auto parsed =
            enumFromName(replKindNames, replacementPolicyName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(enumFromName(replKindNames, "MRU").has_value());
    EXPECT_EQ(std::size(replKindNames), 7u);
    EXPECT_EQ(std::size(repl::onlineReplKinds), 6u);
}

TEST_F(ReplacementTest, FifoIgnoresHits)
{
    Cache cache = makeCache(ReplKind::Fifo);
    cache.access(0 * 128, false, nullptr, 4, ++now);
    cache.access(1 * 128, false, nullptr, 4, ++now);
    // Touch block 0 again: under LRU this would protect it; under
    // FIFO it stays the oldest insertion and is evicted anyway.
    cache.access(0 * 128, false, nullptr, 4, ++now);
    cache.access(2 * 128, false, nullptr, 4, ++now);
    EXPECT_FALSE(cache.contains(0 * 128));
    EXPECT_TRUE(cache.contains(1 * 128));
    EXPECT_TRUE(cache.contains(2 * 128));
}

TEST_F(ReplacementTest, LruProtectsHits)
{
    Cache cache = makeCache(ReplKind::Lru);
    cache.access(0 * 128, false, nullptr, 4, ++now);
    cache.access(1 * 128, false, nullptr, 4, ++now);
    cache.access(0 * 128, false, nullptr, 4, ++now);
    cache.access(2 * 128, false, nullptr, 4, ++now);
    EXPECT_TRUE(cache.contains(0 * 128));
    EXPECT_FALSE(cache.contains(1 * 128));
}

TEST_F(ReplacementTest, RandomIsDeterministicAcrossRuns)
{
    auto run = [this](std::vector<bool> &resident) {
        Cache cache = makeCache(ReplKind::Random);
        Cycles t = 0;
        for (unsigned k = 0; k < 12; ++k)
            cache.access(k * 128, false, nullptr, 4, ++t);
        for (unsigned k = 0; k < 12; ++k)
            resident.push_back(cache.contains(k * 128));
    };
    std::vector<bool> a, b;
    run(a);
    run(b);
    EXPECT_EQ(a, b);
}

TEST_F(ReplacementTest, AllPoliciesAreFunctionallyTransparent)
{
    for (ReplKind policy : replKindNames) {
        Nvm mem(NvmType::ReRam, 1 << 20);
        CacheConfig cfg;
        cfg.replacement = policy;
        Cache cache(cfg, mem);

        std::vector<std::uint8_t> reference(2048, 0);
        Rng rng(0x9e9 + static_cast<std::uint64_t>(policy));
        Cycles t = 0;
        for (int op = 0; op < 4000; ++op) {
            const Addr addr = rng.below(reference.size() / 4) * 4;
            if (rng.chance(0.4)) {
                const auto v = static_cast<std::uint32_t>(rng.next());
                std::memcpy(reference.data() + addr, &v, 4);
                std::uint8_t bytes[4];
                std::memcpy(bytes, &v, 4);
                cache.access(addr, true, bytes, 4, ++t);
            } else {
                std::uint8_t out[4] = {0};
                cache.access(addr, false, out, 4, ++t);
                ASSERT_EQ(std::memcmp(out, reference.data() + addr, 4),
                          0)
                    << replacementPolicyName(policy);
            }
        }
    }
}

TEST_F(ReplacementTest, AllPoliciesAreTransparentUnderCompression)
{
    // Same property with the compressor engaged, so the size-aware
    // policies see genuinely mixed footprints.
    for (ReplKind policy : replKindNames) {
        Nvm mem(NvmType::ReRam, 1 << 20);
        auto comp = makeCompressor(CompressorKind::Bdi);
        FixedGovernor governor(true);
        CacheConfig cfg;
        cfg.replacement = policy;
        Cache cache(cfg, mem, comp.get(), &governor);

        std::vector<std::uint8_t> reference(2048, 0);
        Rng rng(0x5eed + static_cast<std::uint64_t>(policy));
        // Mixed compressibility: runs of small values and noise.
        for (std::size_t i = 0; i < reference.size(); i += 4) {
            const std::uint32_t v =
                rng.chance(0.5)
                    ? static_cast<std::uint32_t>(rng.below(64))
                    : static_cast<std::uint32_t>(rng.next());
            std::memcpy(reference.data() + i, &v, 4);
        }
        mem.writeBytes(0, reference.data(), reference.size());

        Cycles t = 0;
        for (int op = 0; op < 4000; ++op) {
            const Addr addr = rng.below(reference.size() / 4) * 4;
            if (rng.chance(0.4)) {
                const auto v = static_cast<std::uint32_t>(rng.next());
                std::memcpy(reference.data() + addr, &v, 4);
                std::uint8_t bytes[4];
                std::memcpy(bytes, &v, 4);
                cache.access(addr, true, bytes, 4, ++t);
            } else {
                std::uint8_t out[4] = {0};
                cache.access(addr, false, out, 4, ++t);
                ASSERT_EQ(std::memcmp(out, reference.data() + addr, 4),
                          0)
                    << replacementPolicyName(policy);
            }
        }
    }
}

// ---------------------------------------------------------------
// Interface property tests
// ---------------------------------------------------------------

TEST(ReplPolicyInterface, VictimIsAlwaysALegalCandidate)
{
    repl::PolicyGeometry geom;
    geom.sets = 4;
    geom.ways = 2;
    geom.slotsPerSet = 4;
    geom.blockSize = 32;
    geom.segmentBytes = 8;

    for (ReplKind kind : replKindNames) {
        auto policy = repl::makePolicy(kind, geom);
        ASSERT_EQ(policy->kind(), kind);
        Rng rng(0xc0ffee + static_cast<std::uint64_t>(kind));
        for (int trial = 0; trial < 2000; ++trial) {
            const unsigned set =
                static_cast<unsigned>(rng.below(geom.sets));
            const std::size_t n = 1 + rng.below(geom.slotsPerSet);
            std::vector<repl::Candidate> cands(n);
            for (std::size_t i = 0; i < n; ++i) {
                cands[i].slot = i;
                cands[i].base = rng.below(1 << 16) * 32;
                cands[i].lastUse = rng.below(1000);
                cands[i].inserted = rng.below(1000);
                cands[i].occupied =
                    8 * (1 + static_cast<unsigned>(rng.below(4)));
                cands[i].dead = rng.chance(0.2);
            }
            repl::SelectContext ctx;
            ctx.setIndex = set;
            ctx.useCounter = rng.below(100000);

            const std::size_t pick =
                policy->victim(cands.data(), n, ctx);
            ASSERT_LT(pick, n) << replacementPolicyName(kind);
            // Predicted-dead lines always outrank live ones.
            const bool any_dead = std::any_of(
                cands.begin(), cands.end(),
                [](const repl::Candidate &c) { return c.dead; });
            if (any_dead) {
                EXPECT_TRUE(cands[pick].dead)
                    << replacementPolicyName(kind);
            }

            const std::size_t comp_pick =
                policy->compressionVictim(cands.data(), n, ctx);
            ASSERT_LT(comp_pick, n) << replacementPolicyName(kind);

            // Churn observable state so later trials see it.
            policy->noteFill(set, cands[pick].slot, cands[pick].base,
                             cands[pick].occupied);
            if (rng.chance(0.5))
                policy->noteTouch(set, cands[pick].slot,
                                  rng.chance(0.5));
            policy->noteEviction(set, cands[pick].slot,
                                 cands[pick].occupied, rng.chance(0.3),
                                 cands[pick].dead);
            if (rng.chance(0.02))
                policy->noteCacheCleared();
        }
    }
}

TEST(ReplPolicyInterface, CompressionVictimIsLruFirstForEveryPolicy)
{
    // The historical makeRoom rule (and the one its old comment
    // misstated): the line compressed to carve room is the least
    // recently used one regardless of the eviction policy.
    repl::PolicyGeometry geom;
    geom.sets = 4;
    geom.ways = 2;
    geom.slotsPerSet = 4;
    geom.blockSize = 32;
    geom.segmentBytes = 8;

    for (ReplKind kind : replKindNames) {
        auto policy = repl::makePolicy(kind, geom);
        // Conflicting orders: slot 1 is LRU-oldest, slot 2 is
        // FIFO-oldest, slot 0 is first in scan order.
        std::vector<repl::Candidate> cands(3);
        cands[0] = {0, 0x000, 50, 30, 32, false, false, false};
        cands[1] = {1, 0x100, 10, 40, 32, false, false, false};
        cands[2] = {2, 0x200, 90, 5, 32, false, false, false};
        repl::SelectContext ctx;
        ctx.setIndex = 0;
        ctx.useCounter = 1234;
        EXPECT_EQ(policy->compressionVictim(cands.data(), cands.size(),
                                            ctx),
                  1u)
            << replacementPolicyName(kind);
    }
}

TEST_F(ReplacementTest, FifoCompressesTheLruLineNotTheOldestInsertion)
{
    // Cache-level pin of the same rule: under FIFO, filling a third
    // block into a full set compresses the least-recently-used
    // resident (B), not the oldest insertion (A). Compression starts
    // disabled so A and B are resident *uncompressed* -- the only
    // state in which makeRoom's carve-by-compression phase runs.
    auto comp = makeCompressor(CompressorKind::Bdi);
    FixedGovernor governor(false);
    CacheConfig cfg;
    cfg.replacement = ReplKind::Fifo;
    Cache cache(cfg, nvm, comp.get(), &governor);

    const Addr a = 0 * 128, b = 1 * 128, c = 2 * 128;
    cache.access(a, false, nullptr, 4, ++now); // A inserted first
    cache.access(b, false, nullptr, 4, ++now);
    cache.access(a, false, nullptr, 4, ++now); // A is now MRU, B LRU
    governor.set(true);
    cache.access(c, false, nullptr, 4, ++now); // needs room

    ASSERT_TRUE(cache.contains(a));
    ASSERT_TRUE(cache.contains(b));
    ASSERT_TRUE(cache.contains(c));
    EXPECT_TRUE(cache.containsCompressed(b));
    EXPECT_FALSE(cache.containsCompressed(a));
}

TEST(ReplPolicyInterface, StateResetsOnPowerFailureMatchFreshCache)
{
    // After a wholesale invalidation (power failure / checkpoint
    // flush) a cache must behave exactly like a fresh one on the same
    // subsequent stream: pre-refactor policies kept no state beyond
    // the line timestamps the invalidation cleared, and the stateful
    // policies must reset theirs in noteCacheCleared. (Random is
    // exempt: its draw hashes the *global* access counter, which
    // never reset pre-refactor either.)
    for (ReplKind kind :
         {ReplKind::Lru, ReplKind::Fifo, ReplKind::Camp,
          ReplKind::Crrip, ReplKind::SizeOptgen}) {
        Nvm mem_a(NvmType::ReRam, 1 << 20);
        Nvm mem_b(NvmType::ReRam, 1 << 20);
        CacheConfig cfg;
        cfg.replacement = kind;
        Cache warmed(cfg, mem_a);
        Cache fresh(cfg, mem_b);

        Rng rng(0xfa11 + static_cast<std::uint64_t>(kind));
        Cycles t = 0;
        for (int op = 0; op < 500; ++op)
            warmed.access(rng.below(64) * 128, false, nullptr, 4, ++t);
        warmed.invalidateAll(); // the power failure

        Rng replay(0xbeef);
        Cycles ta = t, tb = 0;
        for (int op = 0; op < 500; ++op) {
            const Addr addr = replay.below(64) * 128;
            warmed.access(addr, false, nullptr, 4, ++ta);
            fresh.access(addr, false, nullptr, 4, ++tb);
        }
        for (unsigned k = 0; k < 64; ++k)
            EXPECT_EQ(warmed.contains(k * 128), fresh.contains(k * 128))
                << replacementPolicyName(kind) << " block " << k;
    }
}

TEST(ReplPolicyInterface, SuiteIsDeterministicAcrossWorkerCounts)
{
    for (ReplKind kind :
         {ReplKind::Camp, ReplKind::Crrip, ReplKind::SizeOptgen}) {
        auto shaped = [kind](const std::string &app) {
            SimConfig cfg = accKaguraConfig(app);
            cfg.icache.replacement = kind;
            cfg.dcache.replacement = kind;
            return cfg;
        };
        const std::vector<std::string> apps = {"crc32"};
        runner::setJobCount(1);
        const SuiteResult serial = runSuite("repl", shaped, apps);
        runner::setJobCount(8);
        const SuiteResult parallel = runSuite("repl", shaped, apps);
        runner::setJobCount(0);
        ASSERT_EQ(serial.apps.size(), 1u);
        ASSERT_EQ(parallel.apps.size(), 1u);
        ASSERT_EQ(serial.apps[0].runs.size(),
                  parallel.apps[0].runs.size());
        for (std::size_t i = 0; i < serial.apps[0].runs.size(); ++i)
            EXPECT_TRUE(exactlyEqual(serial.apps[0].runs[i],
                                     parallel.apps[0].runs[i]))
                << replacementPolicyName(kind) << " run " << i
                << " differs between KAGURA_JOBS=1 and 8";
    }
}

// ---------------------------------------------------------------
// Size-aware OPTgen oracle
// ---------------------------------------------------------------

struct OptgenTest : testing::Test
{
    OptgenTest()
    {
        geom.sets = 1;
        geom.ways = 1;
        geom.slotsPerSet = 2;
        geom.blockSize = 32;
        geom.segmentBytes = 8;
    }

    repl::PolicyGeometry geom;
};

TEST_F(OptgenTest, UncompressedReuseFillsTheCache)
{
    // 1-way, 32 B cache. A B A: A's liveness interval [0, 2) has room
    // (32 B, 1 tag... slotsPerSet=2 tags) in both quanta -> model hit.
    // The following B reuse [1, 3) collides with A's charge in
    // quantum 1 (32 + 32 > 32) -> miss.
    repl::SizeOptgenPolicy opt(geom);
    opt.noteAccess(0, 0x000, false, 32);
    opt.noteAccess(0, 0x100, false, 32);
    EXPECT_TRUE(opt.canCache(0, 0, 2, 32));
    opt.noteAccess(0, 0x000, false, 32);
    EXPECT_FALSE(opt.canCache(0, 1, 3, 32));
    opt.noteAccess(0, 0x100, false, 32);

    const repl::UpperBoundStats *stats = opt.upperBound();
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->accesses, 4u);
    EXPECT_EQ(stats->hits, 1u);
}

TEST_F(OptgenTest, CompressedFootprintsShareTheQuanta)
{
    // Same stream, but both blocks compress to 8 B: quantum 1 now
    // holds A (8 B) + B (8 B) <= 32 B with 2 tags, so B's reuse is
    // attainable too -- the size-aware half of OPTgen.
    repl::SizeOptgenPolicy opt(geom);
    opt.noteAccess(0, 0x000, false, 8);
    opt.noteAccess(0, 0x100, false, 8);
    opt.noteAccess(0, 0x000, false, 8);
    opt.noteAccess(0, 0x100, false, 8);

    const repl::UpperBoundStats *stats = opt.upperBound();
    EXPECT_EQ(stats->accesses, 4u);
    EXPECT_EQ(stats->hits, 2u);
}

TEST_F(OptgenTest, TagSlotsBoundCompressedResidency)
{
    // Three 8 B blocks reused: bytes would fit (24 <= 32) but only
    // slotsPerSet = 2 tags exist, so at most two intervals overlap a
    // quantum; the third reuse is infeasible.
    repl::SizeOptgenPolicy opt(geom);
    opt.noteAccess(0, 0x000, false, 8);
    opt.noteAccess(0, 0x100, false, 8);
    opt.noteAccess(0, 0x200, false, 8);
    opt.noteAccess(0, 0x000, false, 8); // [0,3): ok (charges q0..q2)
    opt.noteAccess(0, 0x100, false, 8); // [1,4): ok (2 tags in q1,q2)
    opt.noteAccess(0, 0x200, false, 8); // [2,5): q2 already has 2 tags

    const repl::UpperBoundStats *stats = opt.upperBound();
    EXPECT_EQ(stats->accesses, 6u);
    EXPECT_EQ(stats->hits, 2u);
}

TEST_F(OptgenTest, QuantaClockAdvancesPerSet)
{
    repl::SizeOptgenPolicy opt(geom);
    EXPECT_EQ(opt.quantaOf(0), 0u);
    opt.noteAccess(0, 0x000, false, 32);
    opt.noteAccess(0, 0x100, false, 32);
    EXPECT_EQ(opt.quantaOf(0), 2u);
}

TEST_F(OptgenTest, PowerFailureTruncatesLivenessIntervals)
{
    // A reuse whose interval spans a cache clear cannot be served by
    // any schedule: the clear wiped every block.
    repl::SizeOptgenPolicy opt(geom);
    opt.noteAccess(0, 0x000, false, 8);
    opt.noteCacheCleared();
    opt.noteAccess(0, 0x000, false, 8);
    const repl::UpperBoundStats *stats = opt.upperBound();
    EXPECT_EQ(stats->accesses, 2u);
    EXPECT_EQ(stats->hits, 0u);
}

TEST_F(OptgenTest, IntervalsBeyondTheRingCountAsMisses)
{
    // Reuse distance past the ring capacity is unverifiable and must
    // degrade to a miss, never a false hit.
    repl::SizeOptgenPolicy opt(geom);
    opt.noteAccess(0, 0xabc0, false, 8);
    for (unsigned k = 0; k < repl::SizeOptgenPolicy::ringQuanta + 8;
         ++k) {
        opt.noteAccess(0, 0x10000 + k * 32ull, false, 32);
    }
    const std::uint64_t hits_before = opt.upperBound()->hits;
    opt.noteAccess(0, 0xabc0, false, 8);
    EXPECT_EQ(opt.upperBound()->hits, hits_before);
}

TEST(ReplOptgenSim, UpperBoundDominatesTheDrivingRun)
{
    // End to end: a size-optgen run reports the bound through
    // SimResult, covering every demand access, and never undercuts
    // the hit rate its own LRU-driving run achieved.
    SimConfig cfg = accKaguraConfig("crc32");
    cfg.icache.replacement = ReplKind::SizeOptgen;
    cfg.dcache.replacement = ReplKind::SizeOptgen;
    Simulator sim(cfg);
    const SimResult result = sim.run();

    EXPECT_EQ(result.replOptAccesses,
              result.icache.accesses + result.dcache.accesses);
    EXPECT_GE(result.replOptHits,
              result.icache.hits + result.dcache.hits);
    EXPECT_LE(result.replOptHits, result.replOptAccesses);
}

TEST(ReplOptgenSim, UpperBoundSurvivesTheResultCodec)
{
    SimConfig cfg = accKaguraConfig("crc32");
    cfg.icache.replacement = ReplKind::SizeOptgen;
    cfg.dcache.replacement = ReplKind::SizeOptgen;
    Simulator sim(cfg);
    const SimResult result = sim.run();
    ASSERT_GT(result.replOptAccesses, 0u);

    const std::string bytes = runner::encodeResult(result);
    SimResult decoded;
    ASSERT_TRUE(runner::decodeResult(bytes, decoded));
    EXPECT_EQ(decoded.replOptAccesses, result.replOptAccesses);
    EXPECT_EQ(decoded.replOptHits, result.replOptHits);
    EXPECT_TRUE(exactlyEqual(result, decoded));
}

} // namespace
} // namespace kagura
