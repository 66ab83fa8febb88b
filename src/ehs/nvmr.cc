#include "ehs/nvmr.hh"

#include "metrics/registry.hh"

namespace kagura
{

NvmrEhs::NvmrEhs() = default;

EhsCost
NvmrEhs::onStore(Addr addr, EhsContext &ctx)
{
    EhsCost cost;
    const std::uint64_t block_num = ctx.dcache.blockOf(addr);
    const Addr block = addr & ~Addr{ctx.dcache.config().blockSize - 1};

    // Functionally persist the block now and mark the cached copy
    // clean: with renaming there is never dirty-only data in SRAM.
    // With an L2 the L1 writeback may land in (and dirty) the shared
    // level, so push it the rest of the way -- the renamed store must
    // reach NVM, not merely the next volatile array.
    ctx.dcache.writebackBlock(block);
    if (ctx.l2)
        ctx.l2->writebackBlock(block);

    // Map-table cache lookup: a miss walks the in-NVM map table.
    const std::size_t mtc_slot = block_num % mtcEntries;
    if (!mtcValid[mtc_slot] || mtc[mtc_slot] != block) {
        mtcValid[mtc_slot] = true;
        mtc[mtc_slot] = block;
        ++mtcMisses;
        cost.energy += ctx.nvm.readEnergy / 4; // map-entry fetch
        cost.cycles += ctx.nvm.readLatency / 2;
    }

    // Write-combining: a hit merges into an in-flight row write.
    for (std::size_t i = 0; i < mergeEntries; ++i) {
        if (mergeValid[i] && mergeBuffer[i] == block) {
            ++mergedStores;
            cost.energy += 3.0; // merge-buffer update
            return cost;
        }
    }
    mergeBuffer[mergeCursor] = block;
    mergeValid[mergeCursor] = true;
    mergeCursor = (mergeCursor + 1) % mergeEntries;

    cost.nvmBlockWrites = 1;
    cost.energy += ctx.nvm.writeEnergy;
    // The store buffer hides most of the write latency.
    cost.cycles += ctx.nvm.writeLatency / 4;
    return cost;
}

EhsCost
NvmrEhs::onPowerFailure(const FlushTotals &flushed, EhsContext &ctx)
{
    // The machine dropped the caches. A handful of words of renaming
    // metadata (map-table head, free-list cursor) persist to
    // NVFF-like cells together with the architectural registers --
    // the shared checkpoint formula with zero block writes.
    (void)flushed;

    // The volatile merge buffer and map-table cache die with power.
    for (std::size_t i = 0; i < mergeEntries; ++i)
        mergeValid[i] = false;
    for (std::size_t i = 0; i < mtcEntries; ++i)
        mtcValid[i] = false;
    return ctx.checkpointCost(0, 0, 0);
}

EhsCost
NvmrEhs::onReboot(EhsContext &ctx)
{
    EhsCost cost;
    cost.energy += ctx.regWords * ctx.energy.nvffRead;
    cost.energy += ctx.energy.rebootEnergy;
    // Rebuilding the free list from the persistent map table adds a
    // fixed scan cost (145 free-list entries per Section VIII-H1).
    cost.energy += 145 * ctx.nvm.readEnergy / 8;
    cost.cycles += ctx.energy.rebootLatency + 145;
    return cost;
}

void
NvmrEhs::recordMetrics(metrics::MetricSet &set) const
{
    if (mergedStores)
        set.counter("sim/ehs/merge_hits", mergedStores);
    if (mtcMisses)
        set.counter("sim/ehs/map_misses", mtcMisses);
}

} // namespace kagura
