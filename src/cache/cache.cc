#include "cache/cache.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace kagura
{

void
CacheStats::recordMetrics(metrics::MetricSet &set,
                          std::string_view prefix) const
{
    const auto leaf = [&prefix](const char *name) {
        std::string full(prefix);
        full += '/';
        full += name;
        return full;
    };
    set.counter(leaf("accesses")).add(accesses);
    set.counter(leaf("hits")).add(hits);
    set.counter(leaf("misses")).add(misses);
    set.counter(leaf("evictions")).add(evictions);
    set.counter(leaf("writebacks")).add(writebacks);
    set.counter(leaf("compressions")).add(compressions);
    set.counter(leaf("compactions")).add(compactions);
    set.counter(leaf("decompressions")).add(decompressions);
    set.counter(leaf("compressed_hits")).add(compressedHits);
    set.counter(leaf("compression_enabled_hits"))
        .add(compressionEnabledHits);
    set.counter(leaf("wasted_decompressions")).add(wastedDecompressions);
    set.counter(leaf("prefetch_fills")).add(prefetchFills);
    set.counter(leaf("decay_writebacks")).add(decayWritebacks);
    set.gauge(leaf("miss_rate")).set(missRate());
}

namespace
{

/** Validate geometry before any member needs it. */
const CacheConfig &
validated(const CacheConfig &cfg)
{
    if (!isPowerOfTwo(cfg.blockSize))
        fatal("block size must be a power of two (got %u)", cfg.blockSize);
    if (cfg.blockSize > Block::maxBytes)
        fatal("block size %u exceeds the largest supported geometry "
              "(%zu B)", cfg.blockSize, Block::maxBytes);
    if (cfg.ways == 0)
        fatal("cache needs at least one way");
    if (cfg.sizeBytes % (cfg.ways * cfg.blockSize) != 0 || cfg.sets() == 0)
        fatal("cache size %u B is not divisible into %u-way sets of %u B "
              "blocks", cfg.sizeBytes, cfg.ways, cfg.blockSize);
    if (cfg.segmentBytes == 0 || cfg.blockSize % cfg.segmentBytes != 0)
        fatal("segment size %u must divide the block size %u",
              cfg.segmentBytes, cfg.blockSize);
    return cfg;
}

/**
 * Merge a deeper level's events into this access's outcome --
 * everything but latency, which each call site charges (or drops)
 * according to its own critical-path rule.
 */
void
mergeEvents(const hier::LevelEvents &ev, AccessOutcome &out)
{
    out.nvmBlockReads += ev.nvmBlockReads;
    out.nvmBlockWrites += ev.nvmBlockWrites;
    out.compressions += ev.compressions;
    out.compactions += ev.compactions;
    out.decompressions += ev.decompressions;
    out.evictions += ev.evictions;
    out.nextLevelAccesses += ev.accesses;
}

/** The reverse direction: report this level's outcome upward. */
void
mergeOutcome(const AccessOutcome &out, hier::LevelEvents &ev)
{
    ev.nvmBlockReads += out.nvmBlockReads;
    ev.nvmBlockWrites += out.nvmBlockWrites;
    ev.compressions += out.compressions;
    ev.compactions += out.compactions;
    ev.decompressions += out.decompressions;
    ev.evictions += out.evictions;
}

} // namespace

Cache::Cache(const CacheConfig &config, hier::MemLevel &next_level,
             const Compressor *compressor, CompressionGovernor *governor)
    : cfg(validated(config)), blockShift(floorLog2(cfg.blockSize)),
      next(next_level), comp(compressor),
      gov(governor), shadow(config.sets(), config.ways, config.blockSize)
{
    // One tag slot per potential resident (2x ways when compressed)
    // and one fixed arena slice per slot, all allocated up front so
    // the access path never touches the heap.
    const std::size_t slots_per_set = 2 * cfg.ways;
    arena.assign(static_cast<std::size_t>(cfg.sets()) * slots_per_set *
                     cfg.blockSize,
                 0);
    setArray.assign(cfg.sets(), Set(slots_per_set));
    for (unsigned s = 0; s < cfg.sets(); ++s) {
        for (std::size_t w = 0; w < slots_per_set; ++w) {
            setArray[s][w].arenaOffset =
                (s * slots_per_set + w) * cfg.blockSize;
        }
    }

    repl::PolicyGeometry geom;
    geom.sets = cfg.sets();
    geom.ways = cfg.ways;
    geom.slotsPerSet = static_cast<unsigned>(slots_per_set);
    geom.blockSize = cfg.blockSize;
    geom.segmentBytes = cfg.segmentBytes;
    repl_ = repl::makePolicy(cfg.replacement, geom);
    candScratch.reserve(slots_per_set);

    tags::TagGeometry tgeom;
    tgeom.sets = cfg.sets();
    tgeom.ways = cfg.ways;
    tgeom.slotsPerSet = static_cast<unsigned>(slots_per_set);
    tgeom.blockSize = cfg.blockSize;
    tgeom.segmentBytes = cfg.segmentBytes;
    tgeom.sigBits = cfg.sigBits;
    tagLayout_ = tags::makeTagLayout(cfg.tagLayout, tgeom);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return tagLayout_->setIndex(blockOf(addr));
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return tagLayout_->tagOf(blockOf(addr));
}

Addr
Cache::blockBase(Addr addr) const
{
    return blockOf(addr) << blockShift;
}

Cache::Line *
Cache::findLine(Addr addr, unsigned *rechecks)
{
    const unsigned set_idx = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    const std::size_t slot = tagLayout_->lookup(set_idx, tag, rechecks);
    if (slot == tags::noSlot)
        return nullptr;
    Line &line = setArray[set_idx][slot];
    kagura_assert(line.valid && line.tag == tag);
    return &line;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr, nullptr);
}

unsigned
Cache::setOccupancy(const Set &set) const
{
    unsigned bytes = 0;
    for (const Line &line : set) {
        if (line.valid)
            bytes += line.occupied;
    }
    return bytes;
}

unsigned
Cache::roundToSegments(std::uint64_t bytes) const
{
    return static_cast<unsigned>(
        ceilDiv(bytes, cfg.segmentBytes) * cfg.segmentBytes);
}

unsigned
Cache::compressedFootprint(ConstByteSpan data, bool &worthwhile) const
{
    kagura_assert(comp != nullptr);
    const unsigned footprint = roundToSegments(comp->compressedBytes(data));
    worthwhile = footprint < cfg.blockSize;
    return worthwhile ? footprint : cfg.blockSize;
}

void
Cache::writeback(Line &line, AccessOutcome &out)
{
    hier::LevelEvents ev;
    next.absorbBlock(line.base, lineData(line), ev, clock);
    // No latency merge: writebacks sit behind the store buffer (the
    // historical single-level accounting charged none either).
    mergeEvents(ev, out);
    ++stat.writebacks;
    line.dirty = false;
}

void
Cache::evictLine(Set &set, Line &line, bool dead, AccessOutcome &out)
{
    const unsigned occupied = line.occupied;
    const bool was_dirty = line.dirty;

    // A compressed block must be decompressed on its way out (Eq. 2's
    // L term), whether it is written back or dropped.
    if (line.compressed) {
        ++out.decompressions;
        ++stat.decompressions;
    }
    if (line.dirty)
        writeback(line, out);

    // Could compression have made room instead? True when the set
    // still holds an uncompressed line that is not known to be
    // incompressible (including the victim itself).
    bool avoidable = false;
    for (const Line &peer : set) {
        if (peer.valid && !peer.compressed && !peer.incompressible) {
            avoidable = true;
            break;
        }
    }

    line.valid = false;
    line.occupied = 0;
    ++out.evictions;
    ++stat.evictions;
    tagLayout_->noteEviction(indexOf(set), slotOf(set, line));
    repl_->noteEviction(indexOf(set), slotOf(set, line), occupied,
                        was_dirty, dead);
    if (gov)
        gov->noteEviction(line.base, avoidable);
}

void
Cache::makeRoom(Set &set, unsigned needed, bool may_compress,
                const Line *exclude, std::uint64_t incoming_tag,
                Cycles now, AccessOutcome &out)
{
    const unsigned capacity = cfg.ways * cfg.blockSize;
    kagura_assert(needed <= capacity);

    auto free_bytes = [&]() { return capacity - setOccupancy(set); };
    // The tag-array side of admission is the layout's call: baseline
    // wants any invalid slot (the historical free-tag rule), grouped
    // layouts admit a sibling of a resident superblock for free.
    auto free_tag = [&]() {
        return tagLayout_->canAdmit(indexOf(set), incoming_tag);
    };

    repl::SelectContext ctx;
    ctx.setIndex = indexOf(set);
    ctx.useCounter = useCounter;

    const auto candidateOf = [this](const Set &owning, const Line &line) {
        repl::Candidate cand;
        cand.slot = slotOf(owning, line);
        cand.base = line.base;
        cand.lastUse = line.lastUse;
        cand.inserted = line.inserted;
        cand.occupied = line.occupied;
        cand.compressed = line.compressed;
        cand.dirty = line.dirty;
        cand.coResident =
            tagLayout_->coResidents(indexOf(owning), cand.slot);
        cand.tagGroup = tagLayout_->groupOf(indexOf(owning), cand.slot);
        return cand;
    };

    // First, compress resident uncompressed lines to carve out space
    // -- this is the "compress existing blocks to make room" behaviour
    // Section I describes, and exactly the work Kagura's Regular Mode
    // avoids. The policy picks which line to shrink (historically
    // LRU-first for every policy; repl::ReplacementPolicy keeps that
    // default).
    while (may_compress && comp && free_bytes() < needed) {
        candScratch.clear();
        for (Line &line : set) {
            if (!line.valid || line.compressed || line.incompressible ||
                &line == exclude) {
                continue;
            }
            if (gov && !gov->shouldCompress(line.base))
                continue;
            candScratch.push_back(candidateOf(set, line));
        }
        if (candScratch.empty())
            break;
        const std::size_t pick = repl_->compressionVictim(
            candScratch.data(), candScratch.size(), ctx);
        kagura_assert(pick < candScratch.size());
        Line *victim = &set[candScratch[pick].slot];
        bool worthwhile = false;
        const unsigned footprint =
            compressedFootprint(lineData(*victim), worthwhile);
        ++out.compressions;
        ++stat.compressions;
        if (!worthwhile) {
            victim->incompressible = true;
            if (gov)
                gov->noteIncompressible(victim->base);
            continue;
        }
        ++out.compactions;
        ++stat.compactions;
        if (gov)
            gov->noteCompression(victim->base);
        victim->compressed = true;
        victim->occupied = footprint;
        tagLayout_->noteResize(ctx.setIndex, candScratch[pick].slot,
                               footprint);
    }

    // Then evict lines until both space and a tag slot exist. The
    // policy sees every valid line with its compressed footprint and
    // EDBP dead flag; predicted-dead lines go first (the shared
    // eviction rule), then the policy's own order.
    while (free_bytes() < needed || !free_tag()) {
        candScratch.clear();
        for (Line &line : set) {
            if (!line.valid || &line == exclude)
                continue;
            repl::Candidate cand = candidateOf(set, line);
            cand.dead = decay && decay->isDead(line.lastTouch, now);
            candScratch.push_back(cand);
        }
        kagura_assert(!candScratch.empty());
        const std::size_t pick =
            repl_->victim(candScratch.data(), candScratch.size(), ctx);
        kagura_assert(pick < candScratch.size());
        evictLine(set, set[candScratch[pick].slot], candScratch[pick].dead,
                  out);
    }
}

void
Cache::decaySweep(Set &set, Cycles now, AccessOutcome &out)
{
    if (!decay)
        return;
    for (Line &line : set) {
        if (line.valid && line.dirty && decay->isDead(line.lastTouch, now)) {
            // Predicted dead: persist it now so the checkpoint (and any
            // later eviction) finds it clean.
            if (line.compressed) {
                ++out.decompressions;
                ++stat.decompressions;
            }
            writeback(line, out);
            decay->noteEagerWriteback();
            ++stat.decayWritebacks;
        }
    }
}

Cache::Line &
Cache::fillLine(Addr addr, Cycles now, AccessOutcome &out)
{
    Set &set = setArray[setIndex(addr)];
    const Addr base = blockBase(addr);

    // Fetch the block from the next level into inline scratch *before*
    // makeRoom can write back a victim: NVM addresses wrap modulo the
    // array size, so an eviction may overwrite the very bytes being
    // fetched. The fetch's critical-path latency is kept aside in
    // fillLat: demand misses add it, prefetch fills drop it.
    Block data(cfg.blockSize);
    hier::LevelEvents fetch;
    next.fetchBlock(base, data.span(), fetch, now);
    mergeEvents(fetch, out);
    fillLat = fetch.latency;

    // Engage the compressor datapath (energy is paid whenever it
    // runs), then decide compressed placement separately.
    const bool engage = comp && gov && gov->runCompressor(base);
    const bool place = engage && gov->shouldCompress(base);
    bool compressed = false;
    unsigned footprint = cfg.blockSize;
    if (engage) {
        bool worthwhile = false;
        const unsigned compact =
            compressedFootprint(data.span(), worthwhile);
        ++out.compressions;
        ++stat.compressions;
        shadow.setCompressible(base, worthwhile);
        compressBias = std::clamp(compressBias + (worthwhile ? 1 : -1),
                                  -64, 64);
        if (!worthwhile)
            gov->noteIncompressible(base);
        if (place && worthwhile) {
            compressed = true;
            footprint = compact;
            ++out.compactions;
            ++stat.compactions;
            gov->noteCompression(base);
        }
    }

    const std::uint64_t tag = tagOf(addr);
    makeRoom(set, footprint, place, nullptr, tag, now, out);

    // The layout records the fill and picks the line slot (baseline:
    // the first invalid slot -- the historical "reuse or append"
    // order exactly; makeRoom guarantees one exists).
    const std::size_t slot_idx =
        tagLayout_->allocate(setIndex(addr), tag, footprint);
    kagura_assert(slot_idx < set.size());
    Line *slot = &set[slot_idx];
    kagura_assert(!slot->valid);

    slot->valid = true;
    slot->dirty = false;
    slot->compressed = compressed;
    slot->incompressible = engage && !compressed && place;
    slot->tag = tag;
    slot->base = base;
    slot->occupied = footprint;
    slot->lastUse = ++useCounter;
    slot->inserted = slot->lastUse;
    slot->lastTouch = now;
    std::memcpy(lineData(*slot).data(), data.data(), cfg.blockSize);
    repl_->noteFill(setIndex(addr), slotOf(set, *slot), base, footprint);
    return *slot;
}

AccessOutcome
Cache::access(Addr addr, bool is_write, std::uint8_t *data, unsigned size,
              Cycles now)
{
    kagura_assert(size >= 1 && size <= 8);
    return accessImpl(addr, is_write, data, size, now, false);
}

AccessOutcome
Cache::accessImpl(Addr addr, bool is_write, std::uint8_t *data,
                  unsigned size, Cycles now, bool write_no_allocate)
{
    kagura_assert(size >= 1 && size <= cfg.blockSize);
    kagura_assert(blockOf(addr) == blockOf(addr + size - 1));
    clock = now;

    AccessOutcome out;
    out.latency = 1; // SRAM hit latency (Table I)
    ++stat.accesses;

    const unsigned depth = shadow.touch(addr);
    Set &set = setArray[setIndex(addr)];
    decaySweep(set, now, out);

    unsigned rechecks = 0;
    Line *line = findLine(addr, &rechecks);
    // Signature layouts serialize a full-width comparison behind each
    // signature match (true hit or false positive alike); charge one
    // cycle per re-check on the demand path. Zero for exact-match
    // layouts, so baseline latency is untouched.
    out.latency += rechecks;
    if (line) {
        out.hit = true;
        ++stat.hits;
        repl_->noteTouch(setIndex(addr), slotOf(set, *line), is_write);
        if (line->compressed) {
            out.hitCompressed = true;
            ++out.decompressions;
            ++stat.decompressions;
            ++stat.compressedHits;
            if (comp)
                out.latency += comp->costs().decompressLatency;
            if (depth != ShadowTags::depthMiss && depth < cfg.ways) {
                // Would have hit uncompressed too: wasted decompression.
                ++stat.wastedDecompressions;
                if (gov)
                    gov->noteWastedDecompression(line->base);
            }
        }
        if (depth != ShadowTags::depthMiss && depth >= cfg.ways) {
            // This hit only exists because compression stretched the
            // effective capacity; every compressed peer in the set
            // contributed to that capacity.
            ++stat.compressionEnabledHits;
            if (gov) {
                gov->noteCompressionEnabledHit(line->base);
                for (const Line &peer : set) {
                    if (peer.valid && peer.compressed &&
                        &peer != line) {
                        gov->noteCompressionContribution(peer.base);
                    }
                }
            }
        }
    } else {
        ++stat.misses;
        if (gov && depth != ShadowTags::depthMiss && depth >= cfg.ways &&
            depth < 2 * cfg.ways) {
            // A fully compressed cache would have held this block. The
            // miss is attributable to disabled compression if the
            // block is known to compress, or unrated while the working
            // set is compressible on balance.
            const int rating = shadow.compressibleRating(addr);
            if (rating > 0 || (rating == 0 && compressBias > 0))
                gov->noteCompressionDisabledMiss(addr);
        }
        if (write_no_allocate) {
            // absorbBlock contract: a write miss forwards the block
            // to the next level instead of allocating, so a dirty
            // block never gains an extra volatile copy on its way
            // toward NVM. @p data spans the whole block here.
            kagura_assert(is_write && data != nullptr &&
                          size == cfg.blockSize);
            hier::LevelEvents fwd;
            next.absorbBlock(blockBase(addr), ConstByteSpan{data, size},
                             fwd, now);
            mergeEvents(fwd, out);
            return out;
        }
        line = &fillLine(addr, now, out);
        out.latency += fillLat;
        if (line->compressed && comp)
            out.latency += comp->costs().compressLatency;
    }

    const unsigned offset =
        static_cast<unsigned>(addr & (cfg.blockSize - 1));
    const unsigned occupiedBeforeWrite = line->occupied;
    if (is_write) {
        kagura_assert(data != nullptr);
        std::memcpy(lineData(*line).data() + offset, data, size);
        line->dirty = true;
        if (line->compressed) {
            Set &owning_set = setArray[setIndex(addr)];
            const unsigned capacity = cfg.ways * cfg.blockSize;
            const unsigned free_bytes =
                capacity - setOccupancy(owning_set);
            if (gov && !gov->shouldCompress(line->base) &&
                free_bytes >= cfg.blockSize - line->occupied) {
                // Compression is disabled (Kagura's Regular Mode) and
                // the raw block fits without displacing anything: the
                // written block decompresses once and stays raw, so no
                // further compressor energy is spent on it.
                ++out.decompressions;
                ++stat.decompressions;
                if (comp)
                    out.latency += comp->costs().decompressLatency;
                line->compressed = false;
                line->occupied = cfg.blockSize;
            } else {
                // Contents changed; the block must be recompressed, and
                // it may no longer fit in its old footprint.
                bool worthwhile = false;
                const unsigned footprint =
                    compressedFootprint(lineData(*line), worthwhile);
                ++out.compressions;
                ++stat.compressions;
                ++out.compactions;
                ++stat.compactions;
                if (gov) {
                    gov->noteCompression(line->base);
                    gov->noteRecompression(line->base);
                }
                if (comp)
                    out.latency += comp->costs().compressLatency;
                if (!worthwhile) {
                    line->compressed = false;
                    line->incompressible = true;
                    if (cfg.blockSize > line->occupied)
                        makeRoom(set, cfg.blockSize - line->occupied,
                                 gov && gov->shouldCompress(line->base),
                                 line, line->tag, now, out);
                    line->occupied = cfg.blockSize;
                } else if (footprint > line->occupied) {
                    makeRoom(set, footprint - line->occupied,
                             gov && gov->shouldCompress(line->base), line,
                             line->tag, now, out);
                    line->occupied = footprint;
                } else {
                    line->occupied = footprint;
                }
            }
        }
    } else if (data) {
        std::memcpy(data, lineData(*line).data() + offset, size);
    }

    if (line->occupied != occupiedBeforeWrite) {
        tagLayout_->noteResize(setIndex(addr), slotOf(set, *line),
                               line->occupied);
        repl_->noteResize(setIndex(addr), slotOf(set, *line),
                          line->occupied);
    }
    repl_->noteAccess(setIndex(addr), blockBase(addr), out.hit,
                      line->occupied);

    line->lastUse = ++useCounter;
    line->lastTouch = now;

    // Demand miss: let the prefetcher chase the next line.
    if (!out.hit && pf) {
        Addr next = 0;
        if (pf->next(blockBase(addr), next)) {
            AccessOutcome pf_out = prefetchFill(next, now);
            out.nvmBlockReads += pf_out.nvmBlockReads;
            out.nvmBlockWrites += pf_out.nvmBlockWrites;
            out.compressions += pf_out.compressions;
            out.decompressions += pf_out.decompressions;
            out.evictions += pf_out.evictions;
            // Prefetch latency is off the critical path (no += latency).
        }
    }
    return out;
}

AccessOutcome
Cache::prefetchFill(Addr addr, Cycles now)
{
    AccessOutcome out;
    clock = now;
    if (findLine(addr))
        return out;
    fillLine(addr, now, out);
    ++stat.prefetchFills;
    return out;
}

FlushOutcome
Cache::writebackAllDirty()
{
    FlushOutcome flush;
    hier::LevelEvents ev;
    for (Set &set : setArray) {
        for (Line &line : set) {
            if (!line.valid || !line.dirty)
                continue;
            ++flush.dirtyBlocks;
            if (line.compressed) {
                ++flush.decompressions;
                ++stat.decompressions;
            }
            next.absorbBlock(line.base, lineData(line), ev, clock);
            ++stat.writebacks;
            line.dirty = false;
        }
    }
    // The terminal NVM absorbs each block as exactly one write, so
    // these equal dirtyBlocks (the historical accounting) when no
    // intermediate level sits below; an L2 absorbs hits in place
    // (absorbedWrites) and adds its own decompression work.
    flush.nvmBlockWrites = ev.nvmBlockWrites;
    flush.decompressions += ev.decompressions;
    flush.absorbedWrites = ev.hits;
    return flush;
}

void
Cache::fetchBlock(Addr base, MutByteSpan dst, hier::LevelEvents &ev,
                  Cycles now)
{
    AccessOutcome out =
        accessImpl(base, false, dst.data(), cfg.blockSize, now, false);
    ev.accesses += 1;
    ev.hits += out.hit ? 1 : 0;
    ev.latency += out.latency;
    mergeOutcome(out, ev);
}

void
Cache::absorbBlock(Addr base, ConstByteSpan src, hier::LevelEvents &ev,
                   Cycles now)
{
    // accessImpl never writes through @p data on the store path.
    AccessOutcome out =
        accessImpl(base, true, const_cast<std::uint8_t *>(src.data()),
                   cfg.blockSize, now, true);
    ev.accesses += 1;
    ev.hits += out.hit ? 1 : 0;
    mergeOutcome(out, ev);
}

void
Cache::resetAllLines(tags::ResetCause cause)
{
    for (Set &set : setArray) {
        for (Line &line : set) {
            line.valid = false;
            line.occupied = 0;
        }
    }
    shadow.invalidateAll();
    tagLayout_->reset(cause);
    repl_->noteCacheCleared();
    if (gov)
        gov->noteCacheCleared();
}

FlushOutcome
Cache::flushAndInvalidate()
{
    // Writebacks first (set order, so NVM traffic matches the
    // historical interleaved loop exactly), then the one shared
    // reset: metadata made it out with the data, hence Flush.
    FlushOutcome flush = writebackAllDirty();
    resetAllLines(tags::ResetCause::Flush);
    return flush;
}

void
Cache::invalidateAll()
{
    // No writeback: line state and tag metadata die with the power.
    resetAllLines(tags::ResetCause::PowerLoss);
}

FlushOutcome
Cache::cleanAll()
{
    return writebackAllDirty();
}

bool
Cache::writebackBlock(Addr addr)
{
    Line *line = findLine(addr);
    if (!line || !line->dirty)
        return false;
    AccessOutcome scratch;
    writeback(*line, scratch);
    return true;
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

bool
Cache::containsCompressed(Addr addr) const
{
    const Line *line = findLine(addr);
    return line && line->compressed;
}

unsigned
Cache::validLines() const
{
    unsigned count = 0;
    for (const Set &set : setArray) {
        for (const Line &line : set) {
            if (line.valid)
                ++count;
        }
    }
    return count;
}

unsigned
Cache::dirtyLines() const
{
    unsigned count = 0;
    for (const Set &set : setArray) {
        for (const Line &line : set) {
            if (line.valid && line.dirty)
                ++count;
        }
    }
    return count;
}

} // namespace kagura
