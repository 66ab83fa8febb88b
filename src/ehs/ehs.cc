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
