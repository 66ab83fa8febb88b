/**
 * @file
 * Tag-layout telemetry: the counters a TagLayout accrues while it
 * organises a cache's tags. Split from layout.hh so result consumers
 * (SimResult, the runner codec, reports) can carry the counters
 * without seeing the layout machinery.
 *
 * Encoding contract: BaselineTags records *nothing* here -- its
 * telemetry is the pre-existing CacheStats -- so every pre-subsystem
 * configuration still produces an all-zero TagLayoutStats and the
 * canonical SimResult byte stream (and therefore the committed golden
 * fingerprints) is unchanged. The runner codec only appends a
 * tag-stats section when any counter is nonzero. Each counter is
 * declared once: a member plus its row in fields().
 */

#ifndef KAGURA_TAGS_STATS_HH
#define KAGURA_TAGS_STATS_HH

#include <cstdint>

#include "common/fields.hh"

namespace kagura
{
namespace tags
{

/** Blocks per DISH-style superblock (fixed by the layout). */
constexpr unsigned blocksPerSuperblock = 4;

/** What one tag layout did over a run. */
struct TagLayoutStats
{
    /** Fills that joined an existing superblock entry (shared tag). */
    std::uint64_t tagCompactions = 0;
    /** Fresh superblock tag entries allocated. */
    std::uint64_t sbAllocations = 0;
    /**
     * Superblock fill-degree histogram: after each fill into a
     * superblock entry, the entry's live-block count k increments
     * sbFillDegree[k-1].
     */
    std::uint64_t sbFillDegree[blocksPerSuperblock] = {};

    /** Signature matches that triggered a full-tag re-check. */
    std::uint64_t sigRechecks = 0;
    /** Re-checks whose full tag differed (false positives). */
    std::uint64_t sigFalsePositives = 0;

    /** Live tag entries persisted at a checkpoint flush. */
    std::uint64_t metadataFlushes = 0;
    /** Live tag entries dropped with the power (lost, not flushed). */
    std::uint64_t metadataLosses = 0;

    /** Occupancy samples (one per fill). */
    std::uint64_t occupancySamples = 0;
    /** Sum over samples of live tag entries in the filled set. */
    std::uint64_t tagsLiveSum = 0;
    /** Sum over samples of resident blocks in the filled set. */
    std::uint64_t residentBlockSum = 0;

    /** Accumulate @p other (suite/seed aggregation). */
    void add(const TagLayoutStats &other) { addFields(*this, other); }

    /** Mean resident blocks per set at fill time (0 when idle). */
    double
    meanResidentBlocks() const
    {
        return occupancySamples
                   ? static_cast<double>(residentBlockSum) /
                         static_cast<double>(occupancySamples)
                   : 0.0;
    }

    /** Mean live tag entries per set at fill time (0 when idle). */
    double
    meanLiveTags() const
    {
        return occupancySamples
                   ? static_cast<double>(tagsLiveSum) /
                         static_cast<double>(occupancySamples)
                   : 0.0;
    }

    /** The field list (common/fields.hh), in codec order. */
    static constexpr auto
    fields()
    {
        return std::tuple{
            Member{"compactions", &TagLayoutStats::tagCompactions},
            Member{"sb_allocations", &TagLayoutStats::sbAllocations},
            Member{"sb_fill_degree", &TagLayoutStats::sbFillDegree},
            Member{"sig_rechecks", &TagLayoutStats::sigRechecks},
            Member{"sig_false_positives", &TagLayoutStats::sigFalsePositives},
            Member{"metadata_flushes", &TagLayoutStats::metadataFlushes},
            Member{"metadata_losses", &TagLayoutStats::metadataLosses},
            Member{"occupancy_samples", &TagLayoutStats::occupancySamples},
            Member{"tags_live_sum", &TagLayoutStats::tagsLiveSum},
            Member{"resident_block_sum", &TagLayoutStats::residentBlockSum},
        };
    }
};

} // namespace tags
} // namespace kagura

#endif // KAGURA_TAGS_STATS_HH
