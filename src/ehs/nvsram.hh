/**
 * @file
 * NVSRAMCache [63]: the JIT-checkpointing EHS baseline (Section II-A).
 */

#ifndef KAGURA_EHS_NVSRAM_HH
#define KAGURA_EHS_NVSRAM_HH

#include "ehs/ehs.hh"

namespace kagura
{

/** JIT-checkpointing EHS design. */
class NvsramEhs : public EhsDesign
{
  public:
    bool jitCheckpoints() const override { return true; }

    EhsCost onPowerFailure(const FlushTotals &flushed,
                           EhsContext &ctx) override;
    EhsCost onReboot(EhsContext &ctx) override;
};

} // namespace kagura

#endif // KAGURA_EHS_NVSRAM_HH
