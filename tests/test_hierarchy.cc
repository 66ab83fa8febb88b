/**
 * @file
 * Tests for the src/hier memory-hierarchy layer: randomized
 * two-level (L1 -> shared L2 -> NVM) property suites with tag-layout
 * selfCheck at every step, structural unit tests for the L2's
 * non-inclusive / write-back / write-no-allocate contract, the
 * L2 state-reset-vs-fresh-cache replay pin for both checkpoint-flush
 * and power-loss reset flavors, KAGURA_JOBS determinism with the L2
 * enabled, the conditional canonical-key emission + SimConfig::parse
 * round-trip law for the l2.* keys, and the runner result-codec's
 * tagged L2-telemetry section.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/governor.hh"
#include "common/rng.hh"
#include "compress/compressor.hh"
#include "hier/mem_level.hh"
#include "mem/nvm.hh"
#include "runner/result_codec.hh"
#include "runner/runner.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "tags/layout.hh"

namespace kagura
{
namespace
{

// ---------------------------------------------------------------
// Two-level randomized property suites
// ---------------------------------------------------------------

/** A compressed L1 over a compressed shared L2 over one NVM. */
struct TwoLevel
{
    TwoLevel(const CacheConfig &l1_cfg, const CacheConfig &l2_cfg,
             CompressorKind algo = CompressorKind::Bdi)
        : nvm(NvmType::ReRam, 1 << 20),
          comp(makeCompressor(algo)),
          gov(true),
          l2(l2_cfg, nvm, comp.get(), &gov),
          l1(l1_cfg, l2, comp.get(), &gov)
    {
        l2.setLevelName("l2");
    }

    Nvm nvm;
    std::unique_ptr<Compressor> comp;
    FixedGovernor gov;
    Cache l2;
    Cache l1;
};

using L2Layout = TagLayoutKind;

class TwoLevelProperty : public testing::TestWithParam<L2Layout>
{
  protected:
    CacheConfig
    l1Config() const
    {
        return CacheConfig{};
    }

    CacheConfig
    l2Config() const
    {
        CacheConfig cfg;
        cfg.sizeBytes = 1024;
        cfg.ways = 4;
        cfg.tagLayout = GetParam();
        return cfg;
    }
};

TEST_P(TwoLevelProperty, FunctionalTransparencyWithSelfChecks)
{
    // Property: loads through the two-level hierarchy return exactly
    // what an uncached functional memory would, under a random mixed
    // workload with periodic checkpoint flushes, and both levels'
    // tag-layout invariants hold after every single operation.
    TwoLevel h(l1Config(), l2Config());

    std::vector<std::uint8_t> reference(8192, 0);
    Rng rng(0x41e2 + static_cast<std::uint64_t>(GetParam()));
    for (std::size_t i = 0; i < reference.size(); i += 4) {
        const std::uint32_t v =
            rng.chance(0.5) ? static_cast<std::uint32_t>(rng.below(100))
                            : static_cast<std::uint32_t>(rng.next());
        std::memcpy(reference.data() + i, &v, 4);
    }
    h.nvm.writeBytes(0, reference.data(), reference.size());

    Cycles now = 0;
    for (int op = 0; op < 6000; ++op) {
        const Addr addr = rng.below(reference.size() / 4) * 4;
        if (rng.chance(0.4)) {
            const auto v = static_cast<std::uint32_t>(rng.next());
            std::memcpy(reference.data() + addr, &v, 4);
            std::uint8_t bytes[4];
            std::memcpy(bytes, &v, 4);
            h.l1.access(addr, true, bytes, 4, ++now);
        } else {
            std::uint8_t out[4] = {0};
            h.l1.access(addr, false, out, 4, ++now);
            ASSERT_EQ(std::memcmp(out, reference.data() + addr, 4), 0)
                << "addr " << addr << " op " << op;
        }
        h.l1.tagLayout().selfCheck();
        h.l2.tagLayout().selfCheck();
        // Periodic checkpoint: flush upper-to-lower, like the
        // platform's JIT checkpoint (docs/HIERARCHY.md ordering).
        if (op % 1500 == 1499) {
            h.l1.flushAndInvalidate();
            h.l2.flushAndInvalidate();
        }
    }
    h.l1.flushAndInvalidate();
    h.l2.flushAndInvalidate();
    for (std::size_t i = 0; i < reference.size(); ++i) {
        std::uint8_t b;
        h.nvm.readBytes(i, &b, 1);
        ASSERT_EQ(b, reference[i]) << "NVM divergence at " << i;
    }
    // The plumbing must actually carry traffic through the L2.
    EXPECT_GT(h.l2.stats().accesses, 0u);
    EXPECT_GT(h.l2.stats().hits + h.l2.stats().misses, 0u);
}

TEST_P(TwoLevelProperty, CheckpointFlushDrainsEveryDirtyLine)
{
    // Property: after flushing L1 then L2, no dirty line survives at
    // either level and the NVM holds the authoritative bytes -- the
    // per-EHS power-failure contract every design relies on.
    TwoLevel h(l1Config(), l2Config());

    std::vector<std::uint8_t> reference(4096, 0);
    Rng rng(0x2b1d + static_cast<std::uint64_t>(GetParam()));
    h.nvm.writeBytes(0, reference.data(), reference.size());

    Cycles now = 0;
    for (int op = 0; op < 3000; ++op) {
        const Addr addr = rng.below(reference.size() / 4) * 4;
        const auto v = static_cast<std::uint32_t>(rng.next());
        std::memcpy(reference.data() + addr, &v, 4);
        std::uint8_t bytes[4];
        std::memcpy(bytes, &v, 4);
        h.l1.access(addr, true, bytes, 4, ++now);
    }
    h.l1.flushAndInvalidate();
    // L1 writebacks may have landed in the L2 (write-back absorption),
    // so the L2 flush must drain them to NVM.
    h.l2.flushAndInvalidate();
    EXPECT_EQ(h.l1.dirtyLines(), 0u);
    EXPECT_EQ(h.l2.dirtyLines(), 0u);
    EXPECT_EQ(h.l1.validLines(), 0u);
    EXPECT_EQ(h.l2.validLines(), 0u);
    for (std::size_t i = 0; i < reference.size(); ++i) {
        std::uint8_t b;
        h.nvm.readBytes(i, &b, 1);
        ASSERT_EQ(b, reference[i]) << "NVM divergence at " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(L2Layouts, TwoLevelProperty,
                         testing::Values(TagLayoutKind::Baseline,
                                         TagLayoutKind::Superblock,
                                         TagLayoutKind::Signature),
                         [](const auto &info) {
                             return std::string(
                                 tagLayoutName(info.param));
                         });

// ---------------------------------------------------------------
// Structural contract: non-inclusive / write-back / write-no-allocate
// ---------------------------------------------------------------

/**
 * Plain (uncompressed) two-level fixture with geometry chosen so L2
 * evictions are forced deterministically while the L1 retains the
 * block: L1 = one 8-way set, L2 = 8 sets x 2 ways.
 */
struct PlainTwoLevel
{
    PlainTwoLevel()
        : nvm(NvmType::ReRam, 1 << 20),
          l2(l2Config(), nvm),
          l1(l1Config(), l2)
    {
        l2.setLevelName("l2");
    }

    static CacheConfig
    l1Config()
    {
        CacheConfig cfg;
        cfg.sizeBytes = 256; // one set, 8 ways
        cfg.ways = 8;
        return cfg;
    }

    static CacheConfig
    l2Config()
    {
        CacheConfig cfg;
        cfg.sizeBytes = 512; // 8 sets, 2 ways
        cfg.ways = 2;
        return cfg;
    }

    Nvm nvm;
    Cache l2;
    Cache l1;
};

TEST(HierarchyContract, FillOnReadAllocatesInBothLevels)
{
    PlainTwoLevel h;
    Cycles now = 0;
    h.l1.access(0, false, nullptr, 4, ++now);
    EXPECT_TRUE(h.l1.contains(0));
    EXPECT_TRUE(h.l2.contains(0)) << "L2 must allocate on the fill path";
    EXPECT_EQ(h.l2.stats().accesses, 1u);
    EXPECT_EQ(h.l2.stats().misses, 1u);
}

TEST(HierarchyContract, NonInclusiveL2EvictionLeavesTheL1Copy)
{
    // Fill block A, then two more blocks into A's L2 set: the 2-way
    // L2 evicts A (clean, silently) while the 8-way L1 keeps it.
    PlainTwoLevel h;
    Cycles now = 0;
    h.l1.access(0, false, nullptr, 4, ++now);     // A
    h.l1.access(256, false, nullptr, 4, ++now);   // same L2 set
    h.l1.access(512, false, nullptr, 4, ++now);   // evicts A from L2
    EXPECT_TRUE(h.l1.contains(0));
    EXPECT_FALSE(h.l2.contains(0))
        << "LRU should have evicted A from the 2-way L2 set";
    // No writeback happened: A was clean in the L2.
    EXPECT_EQ(h.l2.stats().writebacks, 0u);
    std::uint8_t out[4] = {0};
    const AccessOutcome hit = h.l1.access(0, false, out, 4, ++now);
    EXPECT_TRUE(hit.hit) << "the L1 copy survives the L2 eviction";
}

TEST(HierarchyContract, AbsorbedWritebackUpdatesTheL2InPlace)
{
    // Dirty A in the L1 while A stays resident (clean) in the L2.
    // Evicting A from the L1 must hit the L2's copy, dirty it in
    // place, and cost no NVM write until the L2 itself flushes.
    PlainTwoLevel h;
    Cycles now = 0;
    std::uint8_t bytes[4] = {0xde, 0xad, 0xbe, 0xef};
    h.l1.access(0, true, bytes, 4, ++now); // A: dirty in L1, in L2
    // Fill the single L1 set with 7 more blocks in distinct L2 sets.
    for (Addr a = 32; a <= 224; a += 32)
        h.l1.access(a, false, nullptr, 4, ++now);
    EXPECT_EQ(h.l1.validLines(), 8u);
    const std::uint64_t nvm_writes_before = h.nvm.blockWrites();
    h.l1.access(256, false, nullptr, 4, ++now); // evicts LRU = A
    EXPECT_FALSE(h.l1.contains(0));
    EXPECT_TRUE(h.l2.contains(0)) << "the absorbed copy stays resident";
    EXPECT_GE(h.l2.dirtyLines(), 1u);
    EXPECT_EQ(h.nvm.blockWrites(), nvm_writes_before)
        << "an absorbed writeback must not reach the NVM";
    // The L2 flush persists it.
    const FlushOutcome flush = h.l2.flushAndInvalidate();
    EXPECT_GE(flush.dirtyBlocks, 1u);
    std::uint8_t b[4];
    h.nvm.readBytes(0, b, 4);
    EXPECT_EQ(std::memcmp(b, bytes, 4), 0);
}

TEST(HierarchyContract, WriteNoAllocateForwardsMissedWritebacks)
{
    // Dirty A in the L1, evict A from the L2 first, then evict A from
    // the L1: the L2 misses the writeback and must forward it to NVM
    // without allocating (a dirty block never gains an extra volatile
    // copy on its way down).
    PlainTwoLevel h;
    Cycles now = 0;
    std::uint8_t bytes[4] = {0x0b, 0xad, 0xf0, 0x0d};
    h.l1.access(0, true, bytes, 4, ++now); // A: dirty in L1, in L2
    h.l1.access(256, false, nullptr, 4, ++now); // A's L2 set fills...
    h.l1.access(512, false, nullptr, 4, ++now); // ...A evicted from L2
    ASSERT_FALSE(h.l2.contains(0));
    // Fill the remaining L1 ways so the next fill evicts A.
    for (Addr a = 32; a <= 160; a += 32)
        h.l1.access(a, false, nullptr, 4, ++now);
    EXPECT_EQ(h.l1.validLines(), 8u);
    const unsigned l2_lines_before = h.l2.validLines();
    const std::uint64_t nvm_writes_before = h.nvm.blockWrites();
    h.l1.access(192, false, nullptr, 4, ++now); // evicts LRU = A
    EXPECT_FALSE(h.l1.contains(0));
    EXPECT_FALSE(h.l2.contains(0))
        << "write-no-allocate: the missed writeback must not allocate";
    // Only the demand fill for block 192 allocated; not A.
    EXPECT_EQ(h.l2.validLines(), l2_lines_before + 1);
    EXPECT_EQ(h.nvm.blockWrites(), nvm_writes_before + 1)
        << "the forwarded writeback must reach the NVM";
    std::uint8_t b[4];
    h.nvm.readBytes(0, b, 4);
    EXPECT_EQ(std::memcmp(b, bytes, 4), 0);
}

// ---------------------------------------------------------------
// L2 state-reset vs fresh cache: the replay pin
// ---------------------------------------------------------------

enum class ResetFlavor
{
    /** JIT checkpoint: flush + invalidate both levels (NVSRAMCache). */
    CheckpointFlush,
    /** Region-boundary clean, then power loss drops the volatile
     *  arrays without data loss (NvMR/SweepCache). */
    CleanThenPowerLoss,
};

class HierarchyReset : public testing::TestWithParam<ResetFlavor>
{
};

TEST_P(HierarchyReset, ResetHierarchyReplaysExactlyLikeAFreshOne)
{
    // Pin: after a whole-hierarchy reset, a fixed read replay must
    // produce the same per-access hit/miss pattern, the same data,
    // and the same stats as a hierarchy built from scratch over the
    // same NVM -- i.e. the reset hook clears *all* per-set auxiliary
    // state (tag layout, replacement, shadow tags) at both levels.
    CacheConfig l1_cfg;
    CacheConfig l2_cfg;
    l2_cfg.sizeBytes = 1024;
    l2_cfg.ways = 4;
    l2_cfg.tagLayout = TagLayoutKind::Superblock;

    TwoLevel reset_h(l1_cfg, l2_cfg);

    // Dirty both levels with mixed traffic.
    std::vector<std::uint8_t> reference(4096, 0);
    Rng rng(0xf1a5);
    for (std::size_t i = 0; i < reference.size(); i += 4) {
        const std::uint32_t v =
            rng.chance(0.5) ? static_cast<std::uint32_t>(rng.below(64))
                            : static_cast<std::uint32_t>(rng.next());
        std::memcpy(reference.data() + i, &v, 4);
    }
    reset_h.nvm.writeBytes(0, reference.data(), reference.size());
    Cycles now = 0;
    for (int op = 0; op < 4000; ++op) {
        const Addr addr = rng.below(reference.size() / 4) * 4;
        if (rng.chance(0.4)) {
            const auto v = static_cast<std::uint32_t>(rng.next());
            std::memcpy(reference.data() + addr, &v, 4);
            std::uint8_t bytes[4];
            std::memcpy(bytes, &v, 4);
            reset_h.l1.access(addr, true, bytes, 4, ++now);
        } else {
            reset_h.l1.access(addr, false, nullptr, 4, ++now);
        }
    }

    // The reset under test, upper-to-lower.
    switch (GetParam()) {
      case ResetFlavor::CheckpointFlush:
        reset_h.l1.flushAndInvalidate();
        reset_h.l2.flushAndInvalidate();
        break;
      case ResetFlavor::CleanThenPowerLoss:
        reset_h.l1.cleanAll();
        reset_h.l2.cleanAll();
        reset_h.l1.invalidateAll();
        reset_h.l2.invalidateAll();
        break;
    }
    reset_h.l1.resetStats();
    reset_h.l2.resetStats();

    // The control: a fresh hierarchy over the same (post-reset) NVM.
    // Replay is read-only, so sharing the NVM is sound.
    Nvm &nvm = reset_h.nvm;
    auto comp = makeCompressor(CompressorKind::Bdi);
    FixedGovernor gov(true);
    Cache fresh_l2(l2_cfg, nvm, comp.get(), &gov);
    fresh_l2.setLevelName("l2");
    Cache fresh_l1(l1_cfg, fresh_l2, comp.get(), &gov);

    Rng replay(0x5eed);
    Cycles reset_now = 1 << 20; // far from the fresh clock on purpose
    Cycles fresh_now = 0;
    for (int op = 0; op < 3000; ++op) {
        const Addr addr = replay.below(reference.size() / 4) * 4;
        std::uint8_t a[4] = {0};
        std::uint8_t b[4] = {0};
        const AccessOutcome ra =
            reset_h.l1.access(addr, false, a, 4, ++reset_now);
        const AccessOutcome rb =
            fresh_l1.access(addr, false, b, 4, ++fresh_now);
        ASSERT_EQ(ra.hit, rb.hit) << "op " << op;
        ASSERT_EQ(ra.hitCompressed, rb.hitCompressed) << "op " << op;
        ASSERT_EQ(std::memcmp(a, b, 4), 0) << "op " << op;
    }
    EXPECT_EQ(reset_h.l1.stats().hits, fresh_l1.stats().hits);
    EXPECT_EQ(reset_h.l1.stats().evictions, fresh_l1.stats().evictions);
    EXPECT_EQ(reset_h.l2.stats().accesses, fresh_l2.stats().accesses);
    EXPECT_EQ(reset_h.l2.stats().hits, fresh_l2.stats().hits);
    EXPECT_EQ(reset_h.l2.stats().evictions, fresh_l2.stats().evictions);
}

INSTANTIATE_TEST_SUITE_P(ResetFlavors, HierarchyReset,
                         testing::Values(
                             ResetFlavor::CheckpointFlush,
                             ResetFlavor::CleanThenPowerLoss),
                         [](const auto &info) {
                             return info.param ==
                                            ResetFlavor::CheckpointFlush
                                        ? "CheckpointFlush"
                                        : "CleanThenPowerLoss";
                         });

// ---------------------------------------------------------------
// Full-simulator determinism with the L2 enabled
// ---------------------------------------------------------------

SimConfig
l2KaguraConfig(const std::string &app)
{
    SimConfig cfg = accKaguraConfig(app);
    cfg.enableL2 = true;
    cfg.l2Governor = GovernorKind::Acc;
    cfg.l2Kagura = true;
    return cfg;
}

TEST(HierarchySuite, SuiteIsDeterministicAcrossWorkerCounts)
{
    const std::vector<std::string> apps = {"crc32"};
    runner::setJobCount(1);
    const SuiteResult serial = runSuite("hier", l2KaguraConfig, apps);
    runner::setJobCount(8);
    const SuiteResult parallel = runSuite("hier", l2KaguraConfig, apps);
    runner::setJobCount(0);
    ASSERT_EQ(serial.apps.size(), 1u);
    ASSERT_EQ(parallel.apps.size(), 1u);
    ASSERT_EQ(serial.apps[0].runs.size(), parallel.apps[0].runs.size());
    for (std::size_t i = 0; i < serial.apps[0].runs.size(); ++i) {
        EXPECT_TRUE(exactlyEqual(serial.apps[0].runs[i],
                                 parallel.apps[0].runs[i]))
            << "run " << i
            << " differs between KAGURA_JOBS=1 and 8 with the L2 on";
        // The per-level telemetry must actually be live.
        EXPECT_GT(serial.apps[0].runs[i].l2cache.accesses, 0u)
            << "run " << i;
    }
}

// ---------------------------------------------------------------
// Canonical key + SimConfig::parse
// ---------------------------------------------------------------

TEST(HierarchyConfig, NoL2ConfigKeyIsUnchanged)
{
    // The conditional emission rule that keeps the committed cache
    // fixture and the golden fingerprints valid: a single-level
    // config's key must carry no l2.* line at all.
    const SimConfig config = accKaguraConfig("crc32");
    EXPECT_EQ(config.canonicalKey().find("l2."), std::string::npos);
    EXPECT_EQ(config.describe().find("L2="), std::string::npos);
}

TEST(HierarchyConfig, L2KeysRoundTripThroughTheCodec)
{
    SimConfig config = l2KaguraConfig("crc32");
    config.l2.sizeBytes = 2048;
    config.l2.ways = 8;
    config.l2.tagLayout = TagLayoutKind::Signature;
    config.l2.sigBits = 8;

    const std::string key = config.canonicalKey();
    EXPECT_NE(key.find("l2.enabled=1"), std::string::npos);
    EXPECT_NE(key.find("l2.size_bytes=2048"), std::string::npos);
    EXPECT_NE(key.find("l2.governor=ACC"), std::string::npos);
    EXPECT_NE(key.find("l2.kagura=1"), std::string::npos);
    EXPECT_NE(key.find("l2.tag_layout=signature"), std::string::npos);
    EXPECT_NE(key.find("l2.sig_bits=8"), std::string::npos);

    SimConfig parsed;
    std::string error;
    ASSERT_EQ(SimConfig::parse(key, parsed, error),
              ParseStatus::Ok)
        << error;
    EXPECT_EQ(parsed.canonicalKey(), key);
    EXPECT_TRUE(parsed.enableL2);
    EXPECT_EQ(parsed.l2.sizeBytes, 2048u);
    EXPECT_EQ(parsed.l2.ways, 8u);
    EXPECT_EQ(parsed.l2.tagLayout, TagLayoutKind::Signature);
    EXPECT_EQ(parsed.l2.sigBits, 8u);
    EXPECT_EQ(parsed.l2Governor, GovernorKind::Acc);
    EXPECT_TRUE(parsed.l2Kagura);
}

TEST(HierarchyConfig, SigBitsIsEmittedOnlyWhenNonDefault)
{
    SimConfig config = accKaguraConfig("crc32");
    config.dcache.tagLayout = TagLayoutKind::Signature;
    EXPECT_EQ(config.canonicalKey().find("sig_bits"),
              std::string::npos);
    config.dcache.sigBits = 10;
    const std::string key = config.canonicalKey();
    EXPECT_NE(key.find("dcache.sig_bits=10"), std::string::npos);
    SimConfig parsed;
    std::string error;
    ASSERT_EQ(SimConfig::parse(key, parsed, error),
              ParseStatus::Ok)
        << error;
    EXPECT_EQ(parsed.dcache.sigBits, 10u);
    EXPECT_EQ(parsed.canonicalKey(), key);
}

/** Replace `from` (a whole line) with `to` in a canonical key. */
std::string
replaceLine(std::string key, const std::string &from,
            const std::string &to)
{
    const std::size_t pos = key.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    key.replace(pos, from.size(), to);
    return key;
}

TEST(HierarchyConfig, CodecRejectsMalformedL2Keys)
{
    const std::string good = l2KaguraConfig("crc32").canonicalKey();
    SimConfig parsed;
    std::string error;

    // Explicit-default spelling: the emitter omits l2.* lines for
    // single-level configs, so l2.enabled=0 is non-canonical and the
    // round-trip law must reject it.
    EXPECT_EQ(SimConfig::parse(
                  replaceLine(good, "l2.enabled=1", "l2.enabled=0"),
                  parsed, error),
              ParseStatus::Malformed);

    // An l2.* line without l2.enabled=1 fails the round-trip too.
    EXPECT_EQ(SimConfig::parse(
                  replaceLine(good, "l2.enabled=1\n", ""), parsed,
                  error),
              ParseStatus::Malformed);

    // Unknown governor: typed Malformed, never a silent fallback.
    EXPECT_EQ(SimConfig::parse(
                  replaceLine(good, "l2.governor=ACC",
                              "l2.governor=bogus"),
                  parsed, error),
              ParseStatus::Malformed);

    // Garbage values in typed l2 fields.
    EXPECT_EQ(SimConfig::parse(
                  replaceLine(good, "l2.kagura=1", "l2.kagura=maybe"),
                  parsed, error),
              ParseStatus::Malformed);
    EXPECT_EQ(SimConfig::parse(
                  replaceLine(good, "l2.size_bytes=1024", "l2.size_bytes=huge"),
                  parsed, error),
              ParseStatus::Malformed);

    // Explicit-default signature width is non-canonical as well.
    SimConfig sig = accKaguraConfig("crc32");
    sig.dcache.tagLayout = TagLayoutKind::Signature;
    EXPECT_EQ(SimConfig::parse(
                  replaceLine(sig.canonicalKey(),
                              "dcache.tag_layout=signature",
                              "dcache.tag_layout=signature\n"
                              "dcache.sig_bits=6"),
                  parsed, error),
              ParseStatus::Malformed);
    EXPECT_NE(error.find("round-trip"), std::string::npos);
}

TEST(HierarchyConfig, L2SpecGrammarCoversTheGridAxis)
{
    // The axis grammar shared by `kagura_sweep grid --l2` and
    // `kagura_sim --l2`: none | SIZExWAYS[:GOVERNOR[+kagura]].
    SimConfig cfg;
    std::string error;
    ASSERT_TRUE(applyL2Spec("1024x4:acc+kagura", cfg, error))
        << error;
    EXPECT_TRUE(cfg.enableL2);
    EXPECT_EQ(cfg.l2.sizeBytes, 1024u);
    EXPECT_EQ(cfg.l2.ways, 4u);
    EXPECT_EQ(cfg.l2Governor, GovernorKind::Acc);
    EXPECT_TRUE(cfg.l2Kagura);

    ASSERT_TRUE(applyL2Spec("2048x8", cfg, error)) << error;
    EXPECT_TRUE(cfg.enableL2);
    EXPECT_EQ(cfg.l2.sizeBytes, 2048u);
    EXPECT_EQ(cfg.l2Governor, GovernorKind::None);
    EXPECT_FALSE(cfg.l2Kagura);

    ASSERT_TRUE(applyL2Spec("none", cfg, error)) << error;
    EXPECT_FALSE(cfg.enableL2);

    // Malformed specs fail typed, never fall back silently.
    EXPECT_FALSE(applyL2Spec("1024", cfg, error));
    EXPECT_FALSE(applyL2Spec("1024x0", cfg, error));
    EXPECT_FALSE(applyL2Spec("x4", cfg, error));
    EXPECT_FALSE(applyL2Spec("1024x4:bogus", cfg, error));
    EXPECT_FALSE(applyL2Spec("1024x4:none", cfg, error));
    EXPECT_FALSE(applyL2Spec("1024x4:acc+turbo", cfg, error));
    EXPECT_FALSE(applyL2Spec("1024x4:+kagura", cfg, error));
}

// ---------------------------------------------------------------
// Result-codec L2 section
// ---------------------------------------------------------------

SimResult
resultWithL2Stats()
{
    SimResult r;
    r.workload = "crc32";
    r.icache.accesses = 100;
    r.icache.hits = 80;
    r.l2cache.accesses = 40;
    r.l2cache.hits = 25;
    r.l2cache.misses = 15;
    r.l2cache.writebacks = 6;
    r.l2cache.compressions = 12;
    r.l2cacheTags.sbAllocations = 3;
    r.l2cacheTags.tagCompactions = 1;
    return r;
}

TEST(L2StatsCodec, SectionRoundTrips)
{
    const SimResult r = resultWithL2Stats();
    SimResult out;
    ASSERT_TRUE(runner::decodeResult(runner::encodeResult(r), out));
    EXPECT_TRUE(exactlyEqual(r, out));
    EXPECT_EQ(out.l2cache.accesses, 40u);
    EXPECT_EQ(out.l2cache.writebacks, 6u);
    EXPECT_EQ(out.l2cacheTags.sbAllocations, 3u);
}

TEST(L2StatsCodec, SectionCoexistsWithTheTagStatsSection)
{
    SimResult r = resultWithL2Stats();
    r.icacheTags.tagCompactions = 7; // forces the tags section too
    r.replOptAccesses = 1000;        // and the untagged extension
    r.replOptHits = 750;
    SimResult out;
    ASSERT_TRUE(runner::decodeResult(runner::encodeResult(r), out));
    EXPECT_TRUE(exactlyEqual(r, out));
    EXPECT_EQ(out.icacheTags.tagCompactions, 7u);
    EXPECT_EQ(out.l2cache.hits, 25u);
    EXPECT_EQ(out.replOptAccesses, 1000u);
}

TEST(L2StatsCodec, AllZeroStatsEncodeExactlyAsBefore)
{
    // The section is emitted only when a counter is nonzero, so a
    // single-level result's byte stream (and its golden fingerprint)
    // is unchanged by the hierarchy refactor.
    SimResult r = resultWithL2Stats();
    const std::string with_stats = runner::encodeResult(r);
    r.l2cache = CacheStats{};
    r.l2cacheTags = tags::TagLayoutStats{};
    const std::string without = runner::encodeResult(r);
    EXPECT_LT(without.size(), with_stats.size());
    // marker u64 + section-id u32 + 13 cache + 13 tag counters.
    EXPECT_EQ(with_stats.size() - without.size(),
              8u + 4u + 13 * 8u + 13 * 8u);

    SimResult out;
    ASSERT_TRUE(runner::decodeResult(without, out));
    EXPECT_EQ(out.l2cache.accesses, 0u);
    EXPECT_FALSE(out.l2cacheTags.any());
}

TEST(L2StatsCodec, MalformedSectionsAreRejected)
{
    const std::string good = runner::encodeResult(resultWithL2Stats());
    SimResult out;

    // Truncation anywhere inside the section.
    EXPECT_FALSE(runner::decodeResult(
        std::string_view(good).substr(0, good.size() - 1), out));
    EXPECT_FALSE(runner::decodeResult(
        std::string_view(good).substr(0, good.size() - 13 * 8), out));

    // A marker followed by an all-zero payload is non-canonical (the
    // encoder would have omitted the section).
    SimResult zero;
    zero.workload = "crc32";
    std::string crafted = runner::encodeResult(zero);
    crafted.append(8, '\0');              // extension marker
    crafted.push_back(2);                 // section id = l2Stats
    crafted.append(3, '\0');
    crafted.append(2 * 13 * 8, '\0');     // all-zero counters
    EXPECT_FALSE(runner::decodeResult(crafted, out));

    // Out-of-order sections: the l2 section (id 2) may never precede
    // the tag-stats section (id 1); ids must be strictly ascending.
    SimResult both = resultWithL2Stats();
    both.icacheTags.tagCompactions = 7;
    const std::string ordered = runner::encodeResult(both);
    const std::size_t section_bytes = 8 + 4 + 2 * 13 * 8;
    std::string swapped =
        ordered.substr(0, ordered.size() - 2 * section_bytes);
    swapped += ordered.substr(ordered.size() - section_bytes);
    swapped += ordered.substr(ordered.size() - 2 * section_bytes,
                              section_bytes);
    EXPECT_FALSE(runner::decodeResult(swapped, out));
}

} // namespace
} // namespace kagura
