/**
 * @file
 * Tests for the src/tags tag-layout subsystem: kind registry and
 * address-mapping laws, randomized invariant property suites for all
 * three layouts (driven through a real compressed Cache with
 * selfCheck after every step), superblock compaction and signature
 * collision unit tests, reset-cause telemetry, the
 * state-reset-vs-fresh-cache replay pin for the shared reset hook,
 * KAGURA_JOBS determinism for the new layouts, canonical-key
 * conditional emission + the SimConfig::parse round-trip law, and the
 * runner result-codec's optional tag-stats section.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/governor.hh"
#include "common/rng.hh"
#include "compress/compressor.hh"
#include "mem/nvm.hh"
#include "runner/result_codec.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "tags/layout.hh"
#include "tags/signature.hh"
#include "tags/superblock.hh"

namespace kagura
{
namespace
{

tags::TagGeometry
smallGeometry()
{
    tags::TagGeometry geom;
    geom.sets = 4;
    geom.ways = 2;
    geom.slotsPerSet = 4;
    geom.blockSize = 32;
    geom.segmentBytes = 8;
    return geom;
}

// ---------------------------------------------------------------
// Kind registry and address mapping
// ---------------------------------------------------------------

TEST(TagLayoutKinds, NamesParseAndRoundTrip)
{
    // The spellings are canonical-key vocabulary; renaming one is a
    // sweep-cache compatibility break.
    EXPECT_STREQ(tagLayoutName(TagLayoutKind::Baseline), "baseline");
    EXPECT_STREQ(tagLayoutName(TagLayoutKind::Superblock),
                 "superblock");
    EXPECT_STREQ(tagLayoutName(TagLayoutKind::Signature), "signature");

    EXPECT_EQ(std::size(tagLayoutNames), 3u);
    for (TagLayoutKind kind : tagLayoutNames) {
        const auto parsed =
            enumFromName(tagLayoutNames, tagLayoutName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_EQ(enumFromName(tagLayoutNames, "SuperBlock"),
              TagLayoutKind::Superblock); // case-insensitive
    EXPECT_FALSE(enumFromName(tagLayoutNames, "dish").has_value());
    EXPECT_FALSE(enumFromName(tagLayoutNames, "").has_value());
}

TEST(TagLayoutMapping, UngroupedLayoutsKeepTheLegacyMapping)
{
    // Baseline and signature must be address-transparent: the legacy
    // block % sets / block / sets split, bit for bit.
    const tags::TagGeometry geom = smallGeometry();
    for (TagLayoutKind kind :
         {TagLayoutKind::Baseline, TagLayoutKind::Signature}) {
        const auto layout = tags::makeTagLayout(kind, geom);
        for (std::uint64_t block = 0; block < 512; ++block) {
            EXPECT_EQ(layout->setIndex(block), block % geom.sets);
            EXPECT_EQ(layout->tagOf(block), block / geom.sets);
        }
    }
}

TEST(TagLayoutMapping, MaskShiftMatchesDivisionForRandomBlocks)
{
    // Power-of-two set counts take mask/shift, others fall back to %
    // and /; both must give the division mapping, for every layout
    // (superblock groups 4 blocks: groupShift 2).
    Rng rng(0x5e75);
    for (unsigned sets : {1u, 3u, 4u, 6u, 64u, 1024u}) {
        tags::TagGeometry geom = smallGeometry();
        geom.sets = sets;
        for (TagLayoutKind kind : tagLayoutNames) {
            const auto layout = tags::makeTagLayout(kind, geom);
            const unsigned shift =
                kind == TagLayoutKind::Superblock ? 2 : 0;
            for (int i = 0; i < 2000; ++i) {
                const std::uint64_t block = rng.next() >> rng.below(64);
                const std::uint64_t group = block >> shift;
                ASSERT_EQ(layout->setIndex(block), group % sets)
                    << tagLayoutName(kind) << " sets " << sets;
                ASSERT_EQ(layout->tagOf(block),
                          ((group / sets) << shift) |
                              (block & ((1ULL << shift) - 1)))
                    << tagLayoutName(kind) << " sets " << sets;
            }
        }
    }
}

TEST(TagLayoutMapping, SuperblockMappingIsBijectiveAndGroupsSiblings)
{
    const tags::TagGeometry geom = smallGeometry();
    const auto layout =
        tags::makeTagLayout(TagLayoutKind::Superblock, geom);
    std::set<std::pair<unsigned, std::uint64_t>> seen;
    for (std::uint64_t block = 0; block < 512; ++block) {
        const unsigned set = layout->setIndex(block);
        const std::uint64_t tag = layout->tagOf(block);
        EXPECT_LT(set, geom.sets);
        // Injective: (set, tag) recovers the block.
        EXPECT_TRUE(seen.emplace(set, tag).second) << "block " << block;
        // All four siblings of a superblock share set and group id.
        EXPECT_EQ(set, layout->setIndex(block & ~3ull));
        EXPECT_EQ(tag >> 2, layout->tagOf(block & ~3ull) >> 2);
        EXPECT_EQ(tag & 3ull, block & 3ull);
    }
}

// ---------------------------------------------------------------
// Direct layout unit tests
// ---------------------------------------------------------------

TEST(SuperblockTagsUnit, SiblingFillsCompactIntoOneSharedTag)
{
    const tags::TagGeometry geom = smallGeometry();
    tags::SuperblockTags layout(geom);

    // Four tags of one superblock: group id 5, blocks 0..3.
    const std::uint64_t tags4[4] = {5 << 2 | 0, 5 << 2 | 1, 5 << 2 | 2,
                                    5 << 2 | 3};
    std::size_t slots[4];
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(layout.canAdmit(1, tags4[i]));
        slots[i] = layout.allocate(1, tags4[i], geom.blockSize / 2);
        ASSERT_NE(slots[i], tags::noSlot);
        layout.selfCheck();
    }

    // One allocation, three compactions; fill degrees 1..4 hit once.
    const tags::TagLayoutStats &stats = layout.stats();
    EXPECT_EQ(stats.sbAllocations, 1u);
    EXPECT_EQ(stats.tagCompactions, 3u);
    for (unsigned k = 0; k < tags::blocksPerSuperblock; ++k)
        EXPECT_EQ(stats.sbFillDegree[k], 1u) << "degree " << k + 1;

    // All four share one entry: 4 co-residents each.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(layout.coResidents(1, slots[i]), 4u);
        EXPECT_EQ(layout.lookup(1, tags4[i], nullptr), slots[i]);
    }

    // Evicting one sibling shrinks the entry but keeps the others.
    layout.noteEviction(1, slots[2]);
    layout.selfCheck();
    EXPECT_EQ(layout.lookup(1, tags4[2], nullptr), tags::noSlot);
    EXPECT_EQ(layout.coResidents(1, slots[0]), 3u);
}

TEST(SuperblockTagsUnit, AdmissionIsLimitedToWaysDistinctSuperblocks)
{
    const tags::TagGeometry geom = smallGeometry(); // ways = 2
    tags::SuperblockTags layout(geom);

    layout.allocate(0, 0 << 2, 8); // superblock 0
    layout.allocate(0, 1 << 2, 8); // superblock 1
    layout.selfCheck();

    // A third distinct superblock needs a tag entry and must wait;
    // a sibling of a resident superblock still fits.
    EXPECT_FALSE(layout.canAdmit(0, 2 << 2));
    EXPECT_TRUE(layout.canAdmit(0, (0 << 2) | 1));

    // Evicting superblock 1's only block frees its entry.
    const std::size_t victim = layout.lookup(0, 1 << 2, nullptr);
    ASSERT_NE(victim, tags::noSlot);
    layout.noteEviction(0, victim);
    layout.selfCheck();
    EXPECT_TRUE(layout.canAdmit(0, 2 << 2));
}

TEST(SignatureTagsUnit, CollisionForcesRecheckAndCountsFalsePositive)
{
    const tags::TagGeometry geom = smallGeometry();
    tags::SignatureTags layout(geom);

    // Find two distinct tags sharing a signature (pigeonhole over
    // 2^signatureBits + 1 candidates guarantees one exists).
    std::uint64_t resident = 0;
    std::uint64_t alias = 0;
    bool found = false;
    for (std::uint64_t a = 0; a < 200 && !found; ++a) {
        for (std::uint64_t b = a + 1; b < 200 && !found; ++b) {
            if (tags::SignatureTags::signatureOf(a) ==
                tags::SignatureTags::signatureOf(b)) {
                resident = a;
                alias = b;
                found = true;
            }
        }
    }
    ASSERT_TRUE(found);

    const std::size_t slot = layout.allocate(2, resident, 16);
    ASSERT_NE(slot, tags::noSlot);
    layout.selfCheck();

    // The resident tag hits through exactly one re-check.
    unsigned rechecks = 0;
    EXPECT_EQ(layout.lookup(2, resident, &rechecks), slot);
    EXPECT_EQ(rechecks, 1u);
    EXPECT_EQ(layout.stats().sigRechecks, 1u);
    EXPECT_EQ(layout.stats().sigFalsePositives, 0u);

    // The alias matches the signature, re-checks, and misses.
    rechecks = 0;
    EXPECT_EQ(layout.lookup(2, alias, &rechecks), tags::noSlot);
    EXPECT_EQ(rechecks, 1u);
    EXPECT_EQ(layout.stats().sigRechecks, 2u);
    EXPECT_EQ(layout.stats().sigFalsePositives, 1u);

    // A tag with a different signature probes for free.
    std::uint64_t clean = 0;
    while (tags::SignatureTags::signatureOf(clean) ==
           tags::SignatureTags::signatureOf(resident))
        ++clean;
    rechecks = 0;
    EXPECT_EQ(layout.lookup(2, clean, &rechecks), tags::noSlot);
    EXPECT_EQ(rechecks, 0u);
}

TEST(TagLayoutUnit, ResetCauseSplitsFlushAndPowerLossTelemetry)
{
    const tags::TagGeometry geom = smallGeometry();
    for (TagLayoutKind kind :
         {TagLayoutKind::Superblock, TagLayoutKind::Signature}) {
        const auto layout = tags::makeTagLayout(kind, geom);
        layout->allocate(0, layout->tagOf(0), 8);
        layout->allocate(1, layout->tagOf(1), 8);
        layout->reset(tags::ResetCause::Flush);
        layout->selfCheck();
        EXPECT_EQ(layout->stats().metadataFlushes, 2u)
            << tagLayoutName(kind);
        EXPECT_EQ(layout->stats().metadataLosses, 0u);
        EXPECT_EQ(layout->lookup(0, layout->tagOf(0), nullptr),
                  tags::noSlot);

        layout->allocate(0, layout->tagOf(0), 8);
        layout->reset(tags::ResetCause::PowerLoss);
        layout->selfCheck();
        EXPECT_EQ(layout->stats().metadataLosses, 1u)
            << tagLayoutName(kind);
    }
}

// ---------------------------------------------------------------
// Randomized property suites (through a real compressed Cache)
// ---------------------------------------------------------------

struct TagLayoutProperty : testing::TestWithParam<TagLayoutKind>
{
};

/**
 * 2000 randomized trials through a compressed cache of geometry
 * @p cfg using layout @p kind: mixed read/write traffic with mixed
 * compressibility, periodic checkpoint flushes and power losses.
 * After every step the layout's selfCheck() revalidates the full
 * invariant set (unique tags, one tag entry per superblock, per-block
 * size fields positive and summing within the arena slot, reverse-map
 * consistency), and reads are checked against a functional reference.
 */
void
checkRandomizedTraffic(TagLayoutKind kind, CacheConfig cfg)
{
    cfg.tagLayout = kind;
    Nvm nvm(NvmType::ReRam, 1 << 20);
    auto comp = makeCompressor(CompressorKind::Bdi);
    FixedGovernor governor(true);
    Cache cache(cfg, nvm, comp.get(), &governor);

    std::vector<std::uint8_t> reference(8192, 0);
    Rng rng(0x7465 + static_cast<std::uint64_t>(kind));
    for (std::size_t i = 0; i < reference.size(); i += 4) {
        const std::uint32_t v =
            rng.chance(0.5) ? static_cast<std::uint32_t>(rng.below(64))
                            : static_cast<std::uint32_t>(rng.next());
        std::memcpy(reference.data() + i, &v, 4);
    }
    nvm.writeBytes(0, reference.data(), reference.size());

    Cycles now = 0;
    for (int op = 0; op < 2000; ++op) {
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
                << tagLayoutName(kind) << " addr " << addr;
        }
        cache.tagLayout().selfCheck();

        // Periodic reset, exercising both causes. The power-loss arm
        // cleans first so the functional reference stays valid.
        if (op % 500 == 499) {
            if (rng.chance(0.5)) {
                cache.flushAndInvalidate();
            } else {
                cache.cleanAll();
                cache.invalidateAll();
            }
            cache.tagLayout().selfCheck();
        }
    }
    cache.flushAndInvalidate();
    cache.tagLayout().selfCheck();
    for (std::size_t i = 0; i < reference.size(); ++i) {
        std::uint8_t b;
        nvm.readBytes(i, &b, 1);
        ASSERT_EQ(b, reference[i])
            << tagLayoutName(kind) << " NVM divergence at " << i;
    }

    // The non-baseline layouts must have exercised their machinery;
    // the baseline must have stayed silent (encoding contract).
    if (kind == TagLayoutKind::Baseline) {
        EXPECT_FALSE(anyNonzero(cache.tagStats()));
    } else {
        EXPECT_TRUE(anyNonzero(cache.tagStats()));
    }
    if (kind == TagLayoutKind::Superblock) {
        EXPECT_GT(cache.tagStats().sbAllocations, 0u);
    }
}

TEST_P(TagLayoutProperty, RandomizedTrafficNeverViolatesInvariants)
{
    checkRandomizedTraffic(GetParam(), CacheConfig{});
}

TEST_P(TagLayoutProperty, NonPowerOfTwoSetCountNeverViolatesInvariants)
{
    // 3 ways x 3 sets: the set count is not a power of two, so the
    // layout's address math takes the % and / fallback.
    CacheConfig cfg;
    cfg.ways = 3;
    cfg.sizeBytes = 3 * 3 * cfg.blockSize;
    ASSERT_EQ(cfg.sets(), 3u);
    checkRandomizedTraffic(GetParam(), cfg);
}

TEST_P(TagLayoutProperty, StateResetOnPowerFailureMatchesFreshCache)
{
    // The shared reset hook (writebackAllDirty + resetAllLines) must
    // leave a cache indistinguishable from a fresh one on the same
    // subsequent stream -- the same pin src/repl carries, now per tag
    // layout (the layout is per-set auxiliary state too).
    const TagLayoutKind kind = GetParam();
    Nvm mem_a(NvmType::ReRam, 1 << 20);
    Nvm mem_b(NvmType::ReRam, 1 << 20);
    CacheConfig cfg;
    cfg.tagLayout = kind;
    Cache warmed(cfg, mem_a);
    Cache fresh(cfg, mem_b);

    Rng rng(0x7a65 + static_cast<std::uint64_t>(kind));
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
            << tagLayoutName(kind) << " block " << k;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, TagLayoutProperty,
    testing::Values(TagLayoutKind::Baseline, TagLayoutKind::Superblock,
                    TagLayoutKind::Signature),
    [](const testing::TestParamInfo<TagLayoutKind> &info) {
        return std::string(tagLayoutName(info.param));
    });

TEST(TagLayoutBehavior, SignatureHitBehaviorMatchesBaseline)
{
    // Signatures change only the probe *cost* (re-checks, false
    // positives); placement and admission are baseline's. Run the
    // same stream through both and demand identical hit outcomes.
    Nvm mem_a(NvmType::ReRam, 1 << 20);
    Nvm mem_b(NvmType::ReRam, 1 << 20);
    CacheConfig base_cfg;
    CacheConfig sig_cfg;
    sig_cfg.tagLayout = TagLayoutKind::Signature;
    auto comp = makeCompressor(CompressorKind::Bdi);
    FixedGovernor gov_a(true);
    FixedGovernor gov_b(true);
    Cache baseline(base_cfg, mem_a, comp.get(), &gov_a);
    Cache signature(sig_cfg, mem_b, comp.get(), &gov_b);

    Rng rng(0x51675);
    Cycles now = 0;
    for (int op = 0; op < 4000; ++op) {
        const Addr addr = rng.below(2048 / 4) * 4;
        ++now;
        const AccessOutcome a =
            baseline.access(addr, false, nullptr, 4, now);
        const AccessOutcome b =
            signature.access(addr, false, nullptr, 4, now);
        ASSERT_EQ(a.hit, b.hit) << "op " << op;
        ASSERT_EQ(a.hitCompressed, b.hitCompressed) << "op " << op;
    }
    EXPECT_EQ(baseline.stats().hits, signature.stats().hits);
    EXPECT_EQ(baseline.stats().evictions, signature.stats().evictions);
    // ...but the signature path paid observable re-check latency.
    EXPECT_GT(signature.tagStats().sigRechecks, 0u);
}

TEST(TagLayoutBehavior, SuiteIsDeterministicAcrossWorkerCounts)
{
    for (TagLayoutKind kind :
         {TagLayoutKind::Superblock, TagLayoutKind::Signature}) {
        auto shaped = [kind](const std::string &app) {
            SimConfig cfg = accKaguraConfig(app);
            cfg.icache.tagLayout = kind;
            cfg.dcache.tagLayout = kind;
            return cfg;
        };
        const std::vector<std::string> apps = {"crc32"};
        runner::setJobCount(1);
        const SuiteResult serial = runSuite("tags", shaped, apps);
        runner::setJobCount(8);
        const SuiteResult parallel = runSuite("tags", shaped, apps);
        runner::setJobCount(0);
        ASSERT_EQ(serial.apps.size(), 1u);
        ASSERT_EQ(parallel.apps.size(), 1u);
        ASSERT_EQ(serial.apps[0].runs.size(),
                  parallel.apps[0].runs.size());
        for (std::size_t i = 0; i < serial.apps[0].runs.size(); ++i)
            EXPECT_TRUE(exactlyEqual(serial.apps[0].runs[i],
                                     parallel.apps[0].runs[i]))
                << tagLayoutName(kind) << " run " << i
                << " differs between KAGURA_JOBS=1 and 8";
    }
}

// ---------------------------------------------------------------
// Canonical key + SimConfig::parse
// ---------------------------------------------------------------

TEST(TagLayoutConfig, BaselineLayoutIsOmittedFromTheCanonicalKey)
{
    // The conditional emission rule that keeps the committed cache
    // fixture and the golden fingerprints valid: a baseline-layout
    // config's key must be byte-identical to a pre-subsystem key.
    const SimConfig config = baselineConfig("crc32");
    EXPECT_EQ(config.canonicalKey().find("tag_layout"),
              std::string::npos);
    EXPECT_EQ(config.describe().find("tags="), std::string::npos);
}

TEST(TagLayoutConfig, NonBaselineLayoutsRoundTripThroughTheCodec)
{
    for (TagLayoutKind kind : tagLayoutNames) {
        SimConfig config = accKaguraConfig("crc32");
        config.icache.tagLayout = kind;
        config.dcache.tagLayout = kind;
        const std::string key = config.canonicalKey();
        if (kind != TagLayoutKind::Baseline) {
            EXPECT_NE(key.find(std::string("icache.tag_layout=") +
                               tagLayoutName(kind)),
                      std::string::npos);
            EXPECT_NE(key.find(std::string("dcache.tag_layout=") +
                               tagLayoutName(kind)),
                      std::string::npos);
        }
        SimConfig parsed;
        std::string error;
        ASSERT_EQ(SimConfig::parse(key, parsed, error),
                  ParseStatus::Ok)
            << tagLayoutName(kind) << ": " << error;
        EXPECT_EQ(parsed.canonicalKey(), key) << tagLayoutName(kind);
        EXPECT_EQ(parsed.icache.tagLayout, kind);
        EXPECT_EQ(parsed.dcache.tagLayout, kind);
    }
}

TEST(TagLayoutConfig, DistinctLayoutsProduceDistinctCanonicalKeys)
{
    std::set<std::string> keys;
    for (TagLayoutKind kind : tagLayoutNames) {
        SimConfig config = baselineConfig("crc32");
        config.dcache.tagLayout = kind;
        keys.insert(config.canonicalKey());
    }
    EXPECT_EQ(keys.size(), std::size(tagLayoutNames));
}

TEST(TagLayoutConfig, CodecRejectsMalformedTagLayoutKeys)
{
    SimConfig parsed;
    std::string error;

    // Unknown layout name: typed Malformed, never a silent baseline
    // fallback.
    EXPECT_EQ(SimConfig::parse(
                  "workload=crc32\ndcache.tag_layout=dish\n", parsed,
                  error),
              ParseStatus::Malformed);

    // An explicit baseline line parses but is non-canonical (the
    // emitter omits it), so the round-trip law rejects it.
    EXPECT_EQ(SimConfig::parse(
                  "workload=crc32\ndcache.tag_layout=baseline\n",
                  parsed, error),
              ParseStatus::Malformed);
    EXPECT_NE(error.find("round-trip"), std::string::npos);
}

TEST(TagLayoutConfig, ParseTagLayoutHelperCoversAllNames)
{
    for (TagLayoutKind kind : tagLayoutNames)
        EXPECT_EQ(enumFromName(tagLayoutNames, tagLayoutName(kind)), kind);
    EXPECT_FALSE(enumFromName(tagLayoutNames, "touche").has_value());
}

// ---------------------------------------------------------------
// Result-codec tag-stats section
// ---------------------------------------------------------------

SimResult
resultWithTagStats()
{
    SimResult r;
    r.workload = "crc32";
    r.icache.accesses = 100;
    r.icache.hits = 80;
    r.icacheTags.tagCompactions = 7;
    r.icacheTags.sbAllocations = 11;
    r.icacheTags.sbFillDegree[0] = 5;
    r.icacheTags.sbFillDegree[3] = 2;
    r.icacheTags.metadataLosses = 3;
    r.icacheTags.occupancySamples = 9;
    r.icacheTags.tagsLiveSum = 40;
    r.icacheTags.residentBlockSum = 60;
    r.dcacheTags.sigRechecks = 17;
    r.dcacheTags.sigFalsePositives = 4;
    r.dcacheTags.metadataFlushes = 2;
    return r;
}

TEST(TagStatsCodec, SectionRoundTrips)
{
    const SimResult r = resultWithTagStats();
    SimResult out;
    ASSERT_TRUE(runner::decodeResult(runner::encodeResult(r), out));
    EXPECT_TRUE(exactlyEqual(r, out));
    EXPECT_EQ(out.icacheTags.tagCompactions, 7u);
    EXPECT_EQ(out.icacheTags.sbFillDegree[3], 2u);
    EXPECT_EQ(out.dcacheTags.sigRechecks, 17u);
    EXPECT_EQ(out.dcacheTags.metadataFlushes, 2u);
}

TEST(TagStatsCodec, SectionCoexistsWithTheOptgenSection)
{
    SimResult r = resultWithTagStats();
    r.replOptAccesses = 1000; // the trailing untagged extension
    r.replOptHits = 750;
    SimResult out;
    ASSERT_TRUE(runner::decodeResult(runner::encodeResult(r), out));
    EXPECT_TRUE(exactlyEqual(r, out));
    EXPECT_EQ(out.replOptAccesses, 1000u);
    EXPECT_EQ(out.dcacheTags.sigFalsePositives, 4u);
}

TEST(TagStatsCodec, AllZeroStatsEncodeExactlyAsBefore)
{
    // The section is emitted only when a counter is nonzero, so a
    // baseline-layout result's byte stream (and its golden
    // fingerprint) is unchanged by the subsystem.
    SimResult r = resultWithTagStats();
    const std::string with_stats = runner::encodeResult(r);
    r.icacheTags = tags::TagLayoutStats{};
    r.dcacheTags = tags::TagLayoutStats{};
    const std::string without = runner::encodeResult(r);
    EXPECT_LT(without.size(), with_stats.size());
    // marker u64 + section-id u32 + 2 x 13 counters.
    EXPECT_EQ(with_stats.size() - without.size(), 8u + 4u + 2 * 13 * 8u);

    SimResult out;
    ASSERT_TRUE(runner::decodeResult(without, out));
    EXPECT_FALSE(anyNonzero(out.icacheTags));
    EXPECT_FALSE(anyNonzero(out.dcacheTags));
}

TEST(TagStatsCodec, MalformedSectionsAreRejected)
{
    const std::string good =
        runner::encodeResult(resultWithTagStats());
    SimResult out;

    // Truncation anywhere inside the section.
    EXPECT_FALSE(runner::decodeResult(
        std::string_view(good).substr(0, good.size() - 1), out));
    EXPECT_FALSE(runner::decodeResult(
        std::string_view(good).substr(0, good.size() - 13 * 8), out));

    // Unknown section id after the zero marker.
    std::string bad = good;
    bad[good.size() - (2 * 13 * 8 + 4)] = 0x2a;
    EXPECT_FALSE(runner::decodeResult(bad, out));

    // A marker followed by an all-zero payload is non-canonical (the
    // encoder would have omitted the section).
    SimResult zero;
    zero.workload = "crc32";
    std::string crafted = runner::encodeResult(zero);
    crafted.append(8, '\0');             // extension marker
    crafted.push_back(1);                // section id = tagStats
    crafted.append(3, '\0');
    crafted.append(2 * 13 * 8, '\0');    // all-zero counters
    EXPECT_FALSE(runner::decodeResult(crafted, out));
}

} // namespace
} // namespace kagura
