#include "ehs/ehs.hh"

#include "common/logging.hh"
#include "ehs/nvmr.hh"
#include "ehs/nvsram.hh"
#include "ehs/specpersist.hh"
#include "ehs/sweepcache.hh"
#include "ehs/taskbased.hh"

namespace kagura
{

EhsCost
EhsContext::checkpointCost(unsigned nvm_block_writes,
                           unsigned decompressions,
                           Cycles per_write_latency) const
{
    // Term order is part of the contract: the same floating-point
    // summation order the pre-refactor NVSRAMCache/SweepCache paths
    // used, so golden fingerprints captured before the helper existed
    // keep matching bit for bit.
    EhsCost cost;
    cost.nvmBlockWrites = nvm_block_writes;
    cost.decompressions = decompressions;
    cost.energy += nvm_block_writes * nvm.writeEnergy;
    cost.cycles += nvm_block_writes * per_write_latency;
    if (hasCompression && decompressions > 0) {
        cost.energy += decompressions * compression.decompressEnergy;
        cost.cycles += decompressions * compression.decompressLatency;
    }
    cost.energy += regWords * energy.nvffWrite;
    cost.cycles += regWords;
    return cost;
}

EhsCost
EhsContext::persistCost(const FlushTotals &moved,
                        Cycles per_write_latency) const
{
    EhsCost cost = checkpointCost(moved.nvmBlockWrites,
                                  moved.decompressions,
                                  per_write_latency);
    if (l2) {
        cost.cycles += moved.absorbedWrites;
        cost.energy += moved.absorbedWrites *
                       energy.cacheAccessEnergy(l2->config().sizeBytes);
    }
    return cost;
}

EhsCost
EhsContext::persistDirty(Cycles per_write_latency,
                         unsigned extra_writes, bool clean_icache)
{
    // Level order matters: the L1 cleans park their dirty blocks in
    // the L2, which the L2 clean then pushes the rest of the way.
    FlushTotals moved;
    moved.nvmBlockWrites = extra_writes;
    const auto add = [&moved](const FlushOutcome &out) {
        moved.nvmBlockWrites += out.nvmBlockWrites;
        moved.decompressions += out.decompressions;
        moved.absorbedWrites += out.absorbedWrites;
    };
    if (clean_icache)
        add(icache.cleanAll());
    add(dcache.cleanAll());
    if (l2)
        add(l2->cleanAll()); // absorbs nothing: NVM sits below it
    return persistCost(moved, per_write_latency);
}

std::unique_ptr<EhsDesign>
makeEhs(EhsKind kind)
{
    switch (kind) {
      case EhsKind::NvsramCache:
        return std::make_unique<NvsramEhs>();
      case EhsKind::NvMR:
        return std::make_unique<NvmrEhs>();
      case EhsKind::SweepCache:
        return std::make_unique<SweepEhs>();
      case EhsKind::TaskBased:
        return std::make_unique<TaskBasedEhs>();
      case EhsKind::SpecPersist:
        return std::make_unique<SpecPersistEhs>();
    }
    panic("unknown EhsKind %d", static_cast<int>(kind));
}

} // namespace kagura
