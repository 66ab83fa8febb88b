/**
 * @file
 * SweepCache [184]: region-based persistence. Every region (a fixed
 * budget of committed instructions, matching the recompiled region
 * boundaries of Section VIII-H1), the design checkpoints registers and
 * sweeps dirty cache blocks to NVM through a persist buffer. A power
 * failure simply drops the caches; the reboot rolls execution back to
 * the last boundary and re-executes from there.
 *
 * Calibrated per the paper: 32 persist-buffer entries.
 */

#ifndef KAGURA_EHS_SWEEPCACHE_HH
#define KAGURA_EHS_SWEEPCACHE_HH

#include "ehs/ehs.hh"

namespace kagura
{

/** Region-sweeping EHS design. */
class SweepEhs : public EhsDesign
{
  public:
    /** @param region_instructions Committed instructions per region. */
    explicit SweepEhs(std::uint64_t region_instructions = 1500);

    EhsKind kind() const override { return EhsKind::SweepCache; }
    const RecoveryModel &recovery() const override;
    bool hasVoltageMonitor() const override { return false; }

    EhsCost onInstructionCommit(std::uint64_t count,
                                std::uint64_t op_index,
                                EhsContext &ctx) override;
    EhsCost onPowerFailure(const FlushTotals &flushed,
                           EhsContext &ctx) override;
    EhsCost onReboot(EhsContext &ctx) override;

    std::uint64_t resumeIndex(std::uint64_t failure_index) const override;
    void noteRollback(std::uint64_t failure_index,
                      std::uint64_t resume_index) override;
    void recordMetrics(metrics::MetricSet &set) const override;

    /** Region sweeps performed. */
    std::uint64_t sweeps() const { return sweepCount; }

    /** Ops re-executed by boundary rollbacks. */
    std::uint64_t reExecutedOps() const { return reExecuted; }

    /** Persist-buffer capacity (entries). */
    static constexpr unsigned persistBufferEntries = 32;

  private:
    std::uint64_t regionSize;
    std::uint64_t sinceBoundary = 0;
    std::uint64_t boundaryIndex = 0;
    std::uint64_t sweepCount = 0;
    std::uint64_t reExecuted = 0;
};

} // namespace kagura

#endif // KAGURA_EHS_SWEEPCACHE_HH
