/**
 * @file
 * One pinned digest over the whole cache layer. An app's load/store
 * stream is replayed through Cache::access under every replacement
 * policy x tag layout x {plain, BDI+ACC}, plus an L1 in front of a
 * 1024x4 L2 and an L1 with EDBP decay and the next-line prefetcher.
 * Every AccessOutcome field, every loaded value, the periodic flush
 * outcomes and the final CacheStats and TagLayoutStats of each cache
 * are folded into one FNV-1a digest.
 *
 * The simulator goldens pin only LRU with baseline tags; this test
 * pins the other policies and layouts, so a rework of the access path
 * that changes any victim, placement or event count fails here.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"
#include "cache/chain.hh"
#include "cache/decay.hh"
#include "cache/prefetcher.hh"
#include "compress/compressor.hh"
#include "core/workload.hh"
#include "mem/nvm.hh"
#include "sim/sim_config.hh"

namespace kagura
{
namespace
{

/** Byte-wise FNV-1a over a stream of 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    fold(std::uint64_t word)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    fold(const AccessOutcome &out)
    {
        fold(out.hit);
        fold(out.hitCompressed);
        fold(out.nvmBlockReads);
        fold(out.nvmBlockWrites);
        fold(out.compressions);
        fold(out.compactions);
        fold(out.decompressions);
        fold(out.evictions);
        fold(out.nextLevelAccesses);
        fold(out.latency);
    }

    void
    fold(const FlushOutcome &out)
    {
        fold(out.dirtyBlocks);
        fold(out.nvmBlockWrites);
        fold(out.decompressions);
        fold(out.absorbedWrites);
        fold(out.compressions);
        fold(out.compactions);
    }

    void
    fold(const Cache &cache)
    {
        const CacheStats &s = cache.stats();
        for (std::uint64_t v :
             {s.accesses, s.hits, s.misses, s.evictions, s.writebacks,
              s.compressions, s.compactions, s.decompressions,
              s.compressedHits, s.compressionEnabledHits,
              s.wastedDecompressions, s.prefetchFills, s.decayWritebacks})
            fold(v);
        const tags::TagLayoutStats &t = cache.tagStats();
        for (std::uint64_t v :
             {t.tagCompactions, t.sbAllocations, t.sigRechecks,
              t.sigFalsePositives, t.metadataFlushes, t.metadataLosses,
              t.occupancySamples, t.tagsLiveSum, t.residentBlockSum})
            fold(v);
        for (std::uint64_t bin : t.sbFillDegree)
            fold(bin);
        fold(cache.validLines());
        fold(cache.dirtyLines());
    }
};

/** How one replay builds its caches. */
struct ReplaySetup
{
    CacheConfig l1{};
    bool compressed = false;
    bool withL2 = false;
    bool decayAndPrefetch = false;
};

/** Accesses between whole-cache resets (cycling flush kinds). */
constexpr unsigned resetPeriod = 1500;

void
replay(const Workload &wl, const ReplaySetup &setup, Digest &digest)
{
    Nvm nvm(NvmType::ReRam, SimConfig{}.nvmBytes);
    wl.applyImage(nvm);

    const std::unique_ptr<Compressor> bdi =
        makeCompressor(CompressorKind::Bdi);
    const Compressor *comp = setup.compressed ? bdi.get() : nullptr;
    GovernorChainSpec spec;
    spec.governor =
        setup.compressed ? GovernorKind::Acc : GovernorKind::None;
    GovernorChain l1_chain = makeGovernorChain(spec);
    GovernorChain l2_chain;
    std::unique_ptr<Cache> l2;
    if (setup.withL2) {
        CacheConfig l2_cfg = SimConfig{}.l2;
        l2_cfg.sizeBytes = 1024;
        l2_cfg.ways = 4;
        l2_chain = makeGovernorChain(spec);
        l2 = std::make_unique<Cache>(l2_cfg, nvm, comp, l2_chain.head);
    }
    hier::MemLevel &next = l2 ? static_cast<hier::MemLevel &>(*l2) : nvm;
    Cache cache(setup.l1, next, comp, l1_chain.head);
    DecayController decay;
    Prefetcher prefetcher(setup.l1.blockSize);
    if (setup.decayAndPrefetch) {
        cache.setDecay(&decay);
        cache.setPrefetcher(&prefetcher);
    }

    Cycles now = 0;
    unsigned accesses = 0;
    unsigned resets = 0;
    for (const MicroOp &op : wl.ops()) {
        if (op.type == MicroOp::Type::Alu)
            continue;
        std::uint8_t bytes[8] = {};
        const bool store = op.type == MicroOp::Type::Store;
        for (unsigned i = 0; store && i < op.size; ++i)
            bytes[i] = static_cast<std::uint8_t>(op.value >> (8 * i));
        const AccessOutcome out =
            cache.access(op.addr, store, bytes, op.size, now);
        digest.fold(out);
        if (!store) {
            std::uint64_t value = 0;
            for (unsigned i = 0; i < op.size; ++i)
                value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
            digest.fold(value);
        } else if (accesses % 7 == 0) {
            digest.fold(cache.writebackBlock(op.addr));
        }
        digest.fold(cache.containsCompressed(op.addr));
        now += 1 + out.latency;

        if (++accesses % resetPeriod == 0) {
            switch (resets++ % 3) {
              case 0:
                digest.fold(cache.flushAndInvalidate());
                if (l2)
                    digest.fold(l2->flushAndInvalidate());
                break;
              case 1:
                digest.fold(cache.cleanAll());
                break;
              default:
                cache.invalidateAll(tags::ResetCause::PowerLoss);
                if (l2)
                    l2->invalidateAll(tags::ResetCause::PowerLoss);
                break;
            }
        }
    }
    digest.fold(cache);
    if (l2)
        digest.fold(*l2);
    digest.fold(decay.eagerWritebacks());
    digest.fold(prefetcher.issuedCount());
}

/**
 * Captured once prefetch fills merged every event counter (compactions
 * and next-level accesses included) and flush outcomes carried the
 * next level's recompressions; a change is a behaviour change.
 */
constexpr std::uint64_t pinnedDigest = 0x8db2a1cb36264b8fULL;

TEST(CacheDigest, EveryPolicyLayoutAndHierarchyIsPinned)
{
    const Workload &wl = cachedWorkload("dijkstra");
    Digest digest;
    for (ReplKind repl :
         {ReplKind::Lru, ReplKind::Fifo, ReplKind::Random, ReplKind::Camp,
          ReplKind::Crrip, ReplKind::SizeOptgen, ReplKind::Dish}) {
        for (TagLayoutKind layout :
             {TagLayoutKind::Baseline, TagLayoutKind::Superblock,
              TagLayoutKind::Signature}) {
            for (bool compressed : {false, true}) {
                ReplaySetup setup;
                setup.l1.replacement = repl;
                setup.l1.tagLayout = layout;
                setup.compressed = compressed;
                replay(wl, setup, digest);
            }
        }
    }
    ReplaySetup hier;
    hier.compressed = true;
    hier.withL2 = true;
    replay(wl, hier, digest);

    ReplaySetup extras;
    extras.compressed = true;
    extras.decayAndPrefetch = true;
    replay(wl, extras, digest);

    EXPECT_EQ(digest.h, pinnedDigest) << std::hex << digest.h;
}

} // namespace
} // namespace kagura
