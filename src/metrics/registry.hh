/**
 * @file
 * The metrics registry: a thread-safe, hierarchical namespace of
 * typed instruments (slash-separated names, e.g. "runner/cache_hits"
 * or "dcache/acc/gcp").
 *
 * Instruments are interned on first use and live for the registry's
 * lifetime, so the reference an accessor returns stays valid forever
 * and hot paths can cache it. Creation takes a mutex; updates on the
 * returned instrument are lock-free relaxed atomics (see metric.hh).
 * Requesting an existing name with a different instrument type is a
 * programming error and panics.
 *
 * Two usage patterns:
 *  - Registry::global() -- process-wide telemetry (runner pool and
 *    cache activity); exported once per kagura_bench run.
 *  - a per-simulation MetricSet (alias of Registry) owned by each
 *    Simulator and populated from the component stats at the end of a
 *    run; labels() carries the workload/config identity into exports.
 */

#ifndef KAGURA_METRICS_REGISTRY_HH
#define KAGURA_METRICS_REGISTRY_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/metric.hh"

namespace kagura
{
namespace metrics
{

class Sink;

/** Record/instrument kinds (also the JSON "kind" vocabulary). */
enum class RecordKind
{
    Counter,
    Gauge,
    Histogram,
    Timer,
    Headline, ///< a bench's top-line scalar; never an instrument
};

/** Stable lowercase name for @p kind (the JSON "kind" field). */
const char *recordKindName(RecordKind kind);

/**
 * One exported data point: a flattened, label-annotated snapshot of
 * an instrument (or a bench headline scalar). This is the unit a
 * Sink consumes.
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

/** The instrument namespace; see file comment for usage patterns. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Process-wide registry (runner and harness telemetry). */
    static Registry &global();

    /** Intern/fetch the counter @p name. */
    Counter &counter(std::string_view name);

    /** Intern/fetch the gauge @p name. */
    Gauge &gauge(std::string_view name);

    /**
     * Intern/fetch the histogram @p name; @p upper_bounds applies on
     * first creation only (subsequent calls return the existing
     * instrument unchanged).
     */
    FixedHistogram &histogram(std::string_view name,
                              std::vector<double> upper_bounds);

    /** Intern/fetch the timer @p name. */
    Timer &timer(std::string_view name);

    /**
     * Labels attached to every record this registry exports (e.g.
     * workload="jpegd"). Not synchronised: set them before sharing
     * the registry across threads or exporting it.
     */
    std::map<std::string, std::string> &labels() { return labelMap; }
    const std::map<std::string, std::string> &
    labels() const
    {
        return labelMap;
    }

    /**
     * Snapshot every instrument as a Record, sorted by name (the
     * export order is deterministic), with labels() merged in.
     */
    std::vector<Record> snapshot() const;

    /** Write snapshot() to @p sink, one record at a time. */
    void emit(Sink &sink) const;

    /** Number of interned instruments (tests). */
    std::size_t size() const;

  private:
    struct Entry
    {
        RecordKind kind;
        // Exactly one of these is set, matching `kind`.
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<FixedHistogram> histogram;
        std::unique_ptr<Timer> timer;
    };

    Entry &fetch(std::string_view name, RecordKind kind);

    mutable std::mutex mutex;
    /** Ordered so snapshot() is deterministic; nodes never move. */
    std::map<std::string, Entry, std::less<>> entries;
    std::map<std::string, std::string> labelMap;
};

} // namespace metrics
} // namespace kagura

#endif // KAGURA_METRICS_REGISTRY_HH
