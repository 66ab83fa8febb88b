/**
 * @file
 * NvMR [24]: nonvolatile memory renaming. Stores persist to NVM as
 * they commit, routed through a map table whose hot entries live in a
 * small map-table cache; consecutive stores to the same block merge in
 * a small write-combining buffer. Because all data is durable by
 * construction, a power failure costs almost nothing (no dirty flush),
 * and no voltage monitor is required.
 *
 * Calibrated per Section VIII-H1: map table 128 entries, map-table
 * cache 16 entries, free list 145 entries.
 */

#ifndef KAGURA_EHS_NVMR_HH
#define KAGURA_EHS_NVMR_HH

#include <array>

#include "ehs/ehs.hh"

namespace kagura
{

/** Store-through renaming EHS design. */
class NvmrEhs : public EhsDesign
{
  public:
    NvmrEhs();

    EhsCost onStore(Addr addr, EhsContext &ctx) override;
    EhsCost onPowerFailure(const FlushTotals &flushed,
                           EhsContext &ctx) override;
    EhsCost onReboot(EhsContext &ctx) override;
    void recordMetrics(metrics::MetricSet &set) const override;

    /** Merge-buffer hits observed (coalesced persists). */
    std::uint64_t mergeHits() const { return mergedStores; }

    /** Map-table-cache misses observed. */
    std::uint64_t mapMisses() const { return mtcMisses; }

  private:
    static constexpr std::size_t mergeEntries = 8;
    static constexpr std::size_t mtcEntries = 16;

    /** Write-combining buffer: recent block addresses (FIFO). */
    std::array<Addr, mergeEntries> mergeBuffer{};
    std::size_t mergeCursor = 0;
    bool mergeValid[mergeEntries] = {};

    /** Direct-mapped map-table cache of block addresses. */
    std::array<Addr, mtcEntries> mtc{};
    bool mtcValid[mtcEntries] = {};

    std::uint64_t mergedStores = 0;
    std::uint64_t mtcMisses = 0;
};

} // namespace kagura

#endif // KAGURA_EHS_NVMR_HH
