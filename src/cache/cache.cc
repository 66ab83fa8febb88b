#include "cache/cache.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace kagura
{

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
      next(next_level), comp(compressor), gov(governor),
      slotsPerSet(2 * cfg.ways),
      lines(static_cast<std::size_t>(cfg.sets()) * slotsPerSet),
      setBytes(cfg.sets(), 0), arena(lines.size() * cfg.blockSize, 0),
      cands(slotsPerSet),
      shadow(config.sets(), config.ways, config.blockSize)
{
    // One line record per potential resident (2x ways when
    // compressed) and one fixed arena slice per record, all allocated
    // up front so the access path never touches the heap.
    repl::PolicyGeometry geom;
    geom.sets = cfg.sets();
    geom.ways = cfg.ways;
    geom.slotsPerSet = slotsPerSet;
    geom.blockSize = cfg.blockSize;
    geom.segmentBytes = cfg.segmentBytes;
    repl_ = repl::makePolicy(cfg.replacement, geom);
    replHooks = repl_->hooks();

    tags::TagGeometry tgeom;
    tgeom.sets = cfg.sets();
    tgeom.ways = cfg.ways;
    tgeom.slotsPerSet = slotsPerSet;
    tgeom.blockSize = cfg.blockSize;
    tgeom.segmentBytes = cfg.segmentBytes;
    tgeom.sigBits = cfg.sigBits;
    tagLayout_ = tags::makeTagLayout(cfg.tagLayout, tgeom);
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    Cache *self = const_cast<Cache *>(this);
    return self->findLine(placeOf(addr), nullptr);
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
Cache::evictLine(unsigned set, std::size_t slot, bool dead,
                 AccessOutcome &out)
{
    Line *const set_lines = setLines(set);
    Line &line = set_lines[slot];
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

    setBytes[set] -= occupied;
    line.valid = false;
    line.occupied = 0;
    ++out.evictions;
    ++stat.evictions;
    tagLayout_->noteEviction(set, slot);
    repl_->noteEviction(set, slot, occupied, was_dirty, dead);
    if (gov) {
        // Could compression have made room instead? True when the set
        // still holds (or the victim was) an uncompressed line that
        // is not known to be incompressible.
        bool avoidable = !line.compressed && !line.incompressible;
        for (std::size_t peer = 0; peer < slotsPerSet && !avoidable;
             ++peer) {
            const Line &other = set_lines[peer];
            avoidable = other.valid && !other.compressed &&
                        !other.incompressible;
        }
        gov->noteEviction(line.base, avoidable);
    }
}

void
Cache::makeRoom(unsigned set, unsigned needed, bool may_compress,
                const Line *exclude, std::uint64_t incoming_tag,
                Cycles now, AccessOutcome &out)
{
    const unsigned capacity = cfg.ways * cfg.blockSize;
    kagura_assert(needed <= capacity);
    Line *const set_lines = setLines(set);
    const unsigned &used = setBytes[set];

    repl::SelectContext ctx;
    ctx.setIndex = set;
    ctx.useCounter = useCounter;

    // Candidates are written in place, one per eligible line in slot
    // order; only the fields some policy reads cost anything beyond a
    // copy (co-residency is asked only of grouped layouts, deadness
    // only with a decay predictor attached).
    const bool grouped = tagLayout_->grouped();
    const auto candidate = [&](std::size_t n, std::size_t slot) {
        const Line &line = set_lines[slot];
        repl::Candidate &cand = cands[n];
        cand.slot = slot;
        cand.base = line.base;
        cand.lastUse = line.lastUse;
        cand.inserted = line.inserted;
        cand.occupied = line.occupied;
        cand.compressed = line.compressed;
        cand.dirty = line.dirty;
        cand.dead = false;
        cand.coResident =
            grouped ? tagLayout_->coResidents(set, slot) : 1;
        return &cand;
    };

    // First, compress resident uncompressed lines to carve out space
    // -- this is the "compress existing blocks to make room" behaviour
    // Section I describes, and exactly the work Kagura's Regular Mode
    // avoids. The line to shrink is the least recently used one,
    // whatever the eviction policy.
    while (may_compress && comp && capacity - used < needed) {
        std::size_t n = 0;
        for (std::size_t slot = 0; slot < slotsPerSet; ++slot) {
            const Line &line = set_lines[slot];
            if (!line.valid || line.compressed || line.incompressible ||
                &line == exclude) {
                continue;
            }
            if (gov && !gov->shouldCompress(line.base))
                continue;
            candidate(n++, slot);
        }
        if (n == 0)
            break;
        const std::size_t pick =
            repl::ReplacementPolicy::compressionVictim(cands.data(), n);
        const std::size_t slot = cands[pick].slot;
        Line *victim = &set_lines[slot];
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
        resize(set, *victim, footprint);
        tagLayout_->noteResize(set, slot, footprint);
    }

    // Then evict lines until both space and a tag slot exist. The
    // policy sees every valid line with its compressed footprint and
    // EDBP dead flag; predicted-dead lines go first (the shared
    // eviction rule), then the policy's own order. The tag-array side
    // of admission is the layout's call: baseline wants any invalid
    // slot (the historical free-tag rule), grouped layouts admit a
    // sibling of a resident superblock for free.
    while (capacity - used < needed ||
           !tagLayout_->canAdmit(set, incoming_tag)) {
        std::size_t n = 0;
        for (std::size_t slot = 0; slot < slotsPerSet; ++slot) {
            const Line &line = set_lines[slot];
            if (!line.valid || &line == exclude)
                continue;
            repl::Candidate *cand = candidate(n++, slot);
            cand->dead = decay && decay->isDead(line.lastTouch, now);
        }
        kagura_assert(n != 0);
        const std::size_t pick = repl_->victim(cands.data(), n, ctx);
        kagura_assert(pick < n);
        evictLine(set, cands[pick].slot, cands[pick].dead, out);
    }
}

void
Cache::decaySweep(unsigned set, Cycles now, AccessOutcome &out)
{
    Line *const set_lines = setLines(set);
    for (std::size_t slot = 0; slot < slotsPerSet; ++slot) {
        Line &line = set_lines[slot];
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
Cache::fillLine(const Place &place, Cycles now, AccessOutcome &out)
{
    const Addr base = place.base;

    // Fetch the block from the next level into inline scratch *before*
    // makeRoom can write back a victim: NVM addresses wrap modulo the
    // array size, so an eviction may overwrite the very bytes being
    // fetched. The fetch's critical-path latency is kept aside in
    // fillLat: demand misses add it, prefetch fills drop it.
    std::uint8_t data[Block::maxBytes];
    const MutByteSpan fetched{data, cfg.blockSize};
    hier::LevelEvents fetch;
    next.fetchBlock(base, fetched, fetch, now);
    fillLat = fetch.latency;

    // Engage the compressor datapath (energy is paid whenever it
    // runs), then decide compressed placement separately.
    const bool engage = comp && gov && gov->runCompressor(base);
    const bool place_compressed = engage && gov->shouldCompress(base);
    bool compressed = false;
    unsigned footprint = cfg.blockSize;
    if (engage) {
        bool worthwhile = false;
        const unsigned compact = compressedFootprint(fetched, worthwhile);
        ++out.compressions;
        ++stat.compressions;
        shadow.setCompressible(base, worthwhile);
        compressBias = std::clamp(compressBias + (worthwhile ? 1 : -1),
                                  -64, 64);
        if (!worthwhile)
            gov->noteIncompressible(base);
        if (place_compressed && worthwhile) {
            compressed = true;
            footprint = compact;
            ++out.compactions;
            ++stat.compactions;
            gov->noteCompression(base);
        }
    }

    makeRoom(place.set, footprint, place_compressed, nullptr, place.tag,
             now, out);

    // The layout records the fill and picks the line slot (baseline:
    // the first invalid slot -- the historical "reuse or append"
    // order exactly; makeRoom guarantees one exists).
    const std::size_t slot =
        tagLayout_->allocate(place.set, place.tag, footprint);
    kagura_assert(slot < slotsPerSet);
    Line &line = setLines(place.set)[slot];
    kagura_assert(!line.valid);

    line.valid = true;
    line.dirty = false;
    line.compressed = compressed;
    line.incompressible = engage && !compressed && place_compressed;
    line.tag = place.tag;
    line.base = base;
    resize(place.set, line, footprint);
    line.lastUse = ++useCounter;
    line.inserted = line.lastUse;
    line.lastTouch = now;
    copyBytes(lineData(line).data(), data, cfg.blockSize);
    if (replHooks.fill)
        repl_->noteFill(place.set, slot, base, footprint);
    // Merged last, long after the next level's stores to @c fetch: a
    // merge right behind them stalls on store forwarding.
    mergeEvents(fetch, out);
    return line;
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
    const Place place = placeOf(addr);
    const unsigned set = place.set;
    if (decay)
        decaySweep(set, now, out);

    unsigned rechecks = 0;
    Line *line = findLine(place, &rechecks);
    // Signature layouts serialize a full-width comparison behind each
    // signature match (true hit or false positive alike); charge one
    // cycle per re-check on the demand path. Zero for exact-match
    // layouts, so baseline latency is untouched.
    out.latency += rechecks;
    if (line) {
        out.hit = true;
        ++stat.hits;
        if (replHooks.touch)
            repl_->noteTouch(set, line - setLines(set), is_write);
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
                const Line *set_lines = setLines(set);
                for (std::size_t slot = 0; slot < slotsPerSet; ++slot) {
                    const Line &peer = set_lines[slot];
                    if (peer.valid && peer.compressed && &peer != line)
                        gov->noteCompressionContribution(peer.base);
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
            next.absorbBlock(place.base, ConstByteSpan{data, size}, fwd,
                             now);
            mergeEvents(fwd, out);
            return out;
        }
        line = &fillLine(place, now, out);
        out.latency += fillLat;
        if (line->compressed && comp)
            out.latency += comp->costs().compressLatency;
    }

    const unsigned offset =
        static_cast<unsigned>(addr & (cfg.blockSize - 1));
    const unsigned occupiedBeforeWrite = line->occupied;
    if (is_write) {
        kagura_assert(data != nullptr);
        copyBytes(lineData(*line).data() + offset, data, size);
        line->dirty = true;
        if (line->compressed) {
            const unsigned capacity = cfg.ways * cfg.blockSize;
            const unsigned free_bytes = capacity - setBytes[set];
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
                resize(set, *line, cfg.blockSize);
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
                    resize(set, *line, cfg.blockSize);
                } else if (footprint > line->occupied) {
                    makeRoom(set, footprint - line->occupied,
                             gov && gov->shouldCompress(line->base), line,
                             line->tag, now, out);
                    resize(set, *line, footprint);
                } else {
                    resize(set, *line, footprint);
                }
            }
        }
    } else if (data) {
        copyBytes(data, lineData(*line).data() + offset, size);
    }

    if (line->occupied != occupiedBeforeWrite)
        tagLayout_->noteResize(set, line - setLines(set), line->occupied);
    if (replHooks.access)
        repl_->noteAccess(set, place.base, out.hit, line->occupied);

    line->lastUse = ++useCounter;
    line->lastTouch = now;

    // Demand miss: let the prefetcher chase the next line.
    if (!out.hit && pf) {
        Addr next = 0;
        if (pf->next(place.base, next)) {
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
    const Place place = placeOf(addr);
    if (findLine(place))
        return out;
    fillLine(place, now, out);
    ++stat.prefetchFills;
    return out;
}

FlushOutcome
Cache::writebackAllDirty()
{
    FlushOutcome flush;
    hier::LevelEvents ev;
    for (Line &line : lines) {
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
    for (Line &line : lines) {
        line.valid = false;
        line.occupied = 0;
    }
    std::fill(setBytes.begin(), setBytes.end(), 0u);
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
Cache::invalidateAll(tags::ResetCause cause)
{
    resetAllLines(cause);
}

FlushOutcome
Cache::cleanAll()
{
    return writebackAllDirty();
}

bool
Cache::writebackBlock(Addr addr)
{
    Line *line = findLine(placeOf(addr));
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
    for (const Line &line : lines) {
        if (line.valid)
            ++count;
    }
    return count;
}

unsigned
Cache::dirtyLines() const
{
    unsigned count = 0;
    for (const Line &line : lines) {
        if (line.valid && line.dirty)
            ++count;
    }
    return count;
}

} // namespace kagura
