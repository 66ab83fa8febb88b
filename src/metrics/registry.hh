/**
 * @file
 * The per-simulation metric set: a plain list of labelled records
 * with slash-separated names (e.g. "sim/loads" or "sim/dcache/acc/gcp").
 *
 * A set is built on request from a finished run
 * (Simulator::metricSet()): each recordMetrics() hook appends the
 * records it owns, every name exactly once, and snapshot() sorts them
 * for export. The set is single-threaded and write-once; nothing in
 * the simulator reads it back. Runner activity is not a set: it is
 * counted once, in runner::progress(), and exported by
 * runner::emitTelemetry().
 */

#ifndef KAGURA_METRICS_REGISTRY_HH
#define KAGURA_METRICS_REGISTRY_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fields.hh"

namespace kagura
{
namespace metrics
{

/** Record kinds (also the JSON "kind" vocabulary). */
enum class RecordKind
{
    Counter,  ///< an event count
    Gauge,    ///< a level (a GCP value, a worker count...)
    Histogram,
    Timer,    ///< a histogram of wall-clock seconds
    Headline, ///< a bench's top-line scalar; never in a MetricSet
};

/** Stable lowercase name for @p kind (the JSON "kind" field). */
const char *recordKindName(RecordKind kind);

/**
 * One exported data point: a counter, gauge or headline scalar, or a
 * bucketed distribution. This is the unit a Sink consumes.
 */
struct Record
{
    RecordKind kind = RecordKind::Counter;
    std::string name;
    std::map<std::string, std::string> labels;

    /** Counter / gauge / headline scalar value. */
    double value = 0.0;

    // Histogram / timer payload.
    std::uint64_t count = 0;
    double sum = 0.0;
    /** Finite bucket upper bounds. */
    std::vector<double> bounds;
    /** Per-bucket counts; bounds.size() + 1 entries (last = overflow). */
    std::vector<std::uint64_t> bucketCounts;
};

/** One run's records; see the file comment. */
class MetricSet
{
  public:
    /** Append the counter @p name. */
    void counter(std::string name, std::uint64_t value);

    /** Append the gauge @p name. */
    void gauge(std::string name, double value);

    /**
     * Append @p samples bucketed under @p upper_bounds: each bound is
     * the inclusive upper edge of its bucket, in strictly increasing
     * order, and one overflow bucket catches everything above the
     * last. Negative samples land in the first bucket. @p kind is
     * Histogram, or Timer for samples in seconds.
     */
    void histogram(std::string name, std::vector<double> upper_bounds,
                   std::span<const double> samples,
                   RecordKind kind = RecordKind::Histogram);

    /** Labels attached to every record this set exports. */
    std::map<std::string, std::string> &labels() { return labelMap; }
    const std::map<std::string, std::string> &
    labels() const
    {
        return labelMap;
    }

    /**
     * Every record, sorted by name, with labels() merged in. Panics
     * when a name was appended twice.
     */
    std::vector<Record> snapshot() const;

  private:
    std::vector<Record> records;
    std::map<std::string, std::string> labelMap;
};

/**
 * Export field-listed @p stats (common/fields.hh) into @p set as
 * "<prefix>/<row>": a counter per counter row, a gauge per derived
 * row, and a "<row>/<k>" counter per nonzero element k of an array.
 */
template <typename T>
void
recordFields(MetricSet &set, std::string_view prefix, const T &stats)
{
    forEachRow<T>([&](const auto &row) {
        std::string name(prefix);
        name += '/';
        name += row.name;
        if constexpr (!isStored<decltype(row)>) {
            set.gauge(std::move(name), (stats.*row.value)());
        } else if constexpr (isArray<decltype(stats.*row.member)>) {
            const auto &bins = stats.*row.member;
            for (std::size_t k = 0; k < std::size(bins); ++k)
                if (bins[k])
                    set.counter(name + '/' + std::to_string(k + 1),
                                bins[k]);
        } else {
            set.counter(std::move(name), stats.*row.member);
        }
    });
}

} // namespace metrics
} // namespace kagura

#endif // KAGURA_METRICS_REGISTRY_HH
