/**
 * @file
 * Energy ledger: attributes every zeptojoule the platform draws to one
 * of the six categories the paper's Fig. 16 breakdown uses, so the
 * bench harness can print the same stacked bars.
 */

#ifndef KAGURA_ENERGY_LEDGER_HH
#define KAGURA_ENERGY_LEDGER_HH

#include <cstddef>
#include <string_view>
#include <tuple>

#include "common/fields.hh"
#include "common/types.hh"
#include "metrics/fwd.hh"

namespace kagura
{

/** Fig. 16 energy categories. */
enum class EnergyCategory : std::size_t
{
    Compress,    ///< block compression work
    Decompress,  ///< block decompression work
    CacheOther,  ///< cache accesses, tag checks, cache leakage
    Memory,      ///< NVM reads/writes and NVM standby
    Checkpoint,  ///< JIT checkpoint + restoration (incl. NVFF traffic)
    Others,      ///< core pipeline, voltage monitor, buffer leakage
    NumCategories,
};

/** Short label for a category (Fig. 16 legend). */
const char *energyCategoryName(EnergyCategory cat);

/** Lowercase metric-name slug for a category (e.g. "cache_other"). */
const char *energyCategorySlug(EnergyCategory cat);

/**
 * Accumulates energy per category, in zeptojoules. Its one row (a
 * counter per category, in EnergyCategory order) is what the result
 * codec stores; reports and metric exports read picojoules.
 */
struct EnergyLedger
{
    static constexpr std::size_t numCategories =
        static_cast<std::size_t>(EnergyCategory::NumCategories);

    /** Energy drawn per category, indexed by EnergyCategory. */
    ZeptoJoules zj[numCategories] = {};

    /** Record @p amount drawn for @p cat. */
    void
    add(EnergyCategory cat, ZeptoJoules amount)
    {
        zj[static_cast<std::size_t>(cat)] += amount;
    }

    /** Energy attributed to @p cat so far. */
    ZeptoJoules
    totalZj(EnergyCategory cat) const
    {
        return zj[static_cast<std::size_t>(cat)];
    }

    /** Sum over all categories. */
    ZeptoJoules
    grandTotalZj() const
    {
        ZeptoJoules sum = 0;
        for (ZeptoJoules bucket : zj)
            sum += bucket;
        return sum;
    }

    /** totalZj() in picojoules. */
    PicoJoules
    total(EnergyCategory cat) const
    {
        return zeptoToPico(totalZj(cat));
    }

    /** grandTotalZj() in picojoules. */
    PicoJoules grandTotal() const { return zeptoToPico(grandTotalZj()); }

    /** Zero every bucket. */
    void
    reset()
    {
        for (ZeptoJoules &bucket : zj)
            bucket = 0;
    }

    /**
     * Export per-category totals (picojoules) plus the grand total
     * into @p set as "<prefix>/<category>_pj" gauges.
     */
    void recordMetrics(metrics::MetricSet &set,
                       std::string_view prefix) const;

    /** The field list (common/fields.hh). */
    static constexpr auto
    fields()
    {
        return std::tuple{Member{"zj", &EnergyLedger::zj}};
    }
};

} // namespace kagura

#endif // KAGURA_ENERGY_LEDGER_HH
