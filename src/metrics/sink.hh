/**
 * @file
 * Export sinks for metric records.
 *
 * The wire format is versioned by `schemaName` ("kagura.metrics/v1"):
 * JSON-lines, one self-describing object per line, safe to append to
 * and to aggregate across processes (see docs/METRICS.md for the
 * field reference; metrics/validate.hh checks conformance).
 *
 * A process-wide *default sink* is how a harness arms export:
 * armExport() opens one from --metrics-out / KAGURA_METRICS_OUT and
 * everything else (headline emission, the runner counters of
 * runner::emitTelemetry(), per-simulation metric sets, per-cycle
 * series) writes through emitRecord(), which is a no-op when no sink
 * is attached.
 */

#ifndef KAGURA_METRICS_SINK_HH
#define KAGURA_METRICS_SINK_HH

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "metrics/registry.hh"

namespace kagura
{
namespace metrics
{

/** Schema identifier stamped into every exported record. */
constexpr const char *schemaName = "kagura.metrics/v1";

/** Consumes flattened records; implementations must be thread-safe. */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** Write one record. */
    virtual void write(const Record &record) = 0;

    /**
     * Push buffered output to its destination. False when this or
     * any earlier write failed to reach it.
     */
    virtual bool flush() { return true; }
};

/** One JSON object per line; see docs/METRICS.md for the schema. */
class JsonLinesSink : public Sink
{
  public:
    /** Open @p path for writing; nullptr on failure. */
    static std::unique_ptr<JsonLinesSink> open(const std::string &path);

    ~JsonLinesSink() override;

    void write(const Record &record) override;
    bool flush() override;

  private:
    /** Write to @p out, closing it on destruction. */
    explicit JsonLinesSink(std::FILE *out) : file(out) {}

    std::mutex mutex;
    std::FILE *file;
    /** A write or flush failed (guarded by mutex). */
    bool failed = false;
};

/**
 * Install the process-wide default sink, flushing and replacing any
 * previous one; pass nullptr to detach. False when the replaced sink
 * reported a write error at that flush. Call from harness setup, not
 * concurrently with emitters.
 */
bool setDefaultSink(std::unique_ptr<Sink> sink);

/** The default sink, or nullptr when none is attached. */
Sink *defaultSink();

/**
 * Labels merged into every record routed through emitRecord() (e.g.
 * bench="fig13_main_speedup"). Mutate during harness setup only.
 */
std::map<std::string, std::string> &defaultLabels();

/**
 * Write @p record to the default sink with defaultLabels() merged in
 * (record-local labels win). No-op when no sink is attached.
 */
void emitRecord(Record record);

/** Emit one headline scalar (a bench's top-line number). */
void emitHeadline(std::string name, double value,
                  std::map<std::string, std::string> labels = {});

/**
 * Arm per-power-cycle time-series export: when on, every job the
 * runner finishes, simulated or served from the result cache,
 * additionally emits one record per completed power cycle and series
 * (instructions, loads, stores, active cycles) with a `cycle_index`
 * label. Off by default because long intermittent runs complete tens
 * of thousands of cycles.
 */
void setTimeseriesEnabled(bool on);

/** True when per-power-cycle export is armed. */
bool timeseriesEnabled();

/**
 * True when every plain simulation exports its whole MetricSet
 * (KAGURA_METRICS_PER_SIM, read by armExport()). Off by default: a
 * sweep runs thousands of simulations.
 */
bool perSimEnabled();

/**
 * Arm a harness's export, the one place the metrics switches are
 * read. @p path is --metrics-out; when empty, KAGURA_METRICS_OUT
 * names the output, and with neither there is no export. The output
 * is opened as the default sink (fatal when it cannot be), labelled
 * bench=@p bench when @p bench is given. The per-cycle series is
 * armed by @p timeseries (--metrics-timeseries) or
 * KAGURA_METRICS_TIMESERIES, per-simulation sets by
 * KAGURA_METRICS_PER_SIM. Those two variables follow one rule: set
 * to anything but "", "0" or "off", they are on.
 */
void armExport(std::string path, bool timeseries,
               const char *bench = nullptr);

/**
 * Flush and detach the default sink; fatal when any record failed to
 * reach the output, so the harness exits nonzero. No-op without one.
 */
void finishExport();

} // namespace metrics
} // namespace kagura

#endif // KAGURA_METRICS_SINK_HH
