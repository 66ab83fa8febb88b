#include "metrics/sink.hh"

#include <atomic>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "metrics/json.hh"

namespace kagura
{
namespace metrics
{

namespace
{

std::string
jsonLabels(const std::map<std::string, std::string> &labels)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += '"';
        out += json::escape(k);
        out += "\":\"";
        out += json::escape(v);
        out += '"';
    }
    out += "}";
    return out;
}

/** One record as a single JSON-lines object (no trailing newline). */
std::string
recordToJson(const Record &rec)
{
    std::string out = "{";
    out += "\"schema\":\"";
    out += schemaName;
    out += "\",\"kind\":\"";
    out += recordKindName(rec.kind);
    out += "\",\"name\":\"" + json::escape(rec.name) + "\"";
    out += ",\"labels\":" + jsonLabels(rec.labels);
    if (rec.kind == RecordKind::Histogram ||
        rec.kind == RecordKind::Timer) {
        out += detail::vformat(",\"count\":%" PRIu64, rec.count);
        out += ",\"sum\":" + json::number(rec.sum);
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < rec.bucketCounts.size(); ++i) {
            if (i)
                out += ",";
            out += "{\"le\":";
            out += i < rec.bounds.size() ? json::number(rec.bounds[i])
                                         : std::string("\"inf\"");
            out += detail::vformat(",\"count\":%" PRIu64 "}",
                                   rec.bucketCounts[i]);
        }
        out += "]";
    } else {
        out += ",\"value\":" + json::number(rec.value);
    }
    out += "}";
    return out;
}

} // namespace

JsonLinesSink::~JsonLinesSink()
{
    std::fclose(file);
}

std::unique_ptr<JsonLinesSink>
JsonLinesSink::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return nullptr;
    return std::unique_ptr<JsonLinesSink>(new JsonLinesSink(f));
}

void
JsonLinesSink::write(const Record &record)
{
    const std::string line = recordToJson(record);
    std::lock_guard<std::mutex> lock(mutex);
    if (std::fprintf(file, "%s\n", line.c_str()) < 0)
        failed = true;
}

bool
JsonLinesSink::flush()
{
    std::lock_guard<std::mutex> lock(mutex);
    if (std::fflush(file) != 0 || std::ferror(file))
        failed = true;
    return !failed;
}

namespace
{

/**
 * Default-sink slot: owner + lock-free reader pointer. The owner is
 * intentionally leaked so atexit exporters can never observe a
 * destroyed sink; emitters flush explicitly, so skipping the
 * destructor's fclose loses no data.
 */
std::unique_ptr<Sink> &
defaultSinkOwner()
{
    static auto *owner = new std::unique_ptr<Sink>;
    return *owner;
}

std::atomic<Sink *> defaultSinkPtr{nullptr};

} // namespace

bool
setDefaultSink(std::unique_ptr<Sink> sink)
{
    bool ok = true;
    if (Sink *old = defaultSinkPtr.load())
        ok = old->flush();
    defaultSinkPtr.store(sink.get());
    defaultSinkOwner() = std::move(sink);
    return ok;
}

Sink *
defaultSink()
{
    return defaultSinkPtr.load();
}

std::map<std::string, std::string> &
defaultLabels()
{
    // Leaked for the same exit-order reason as the sink owner.
    static auto *labels = new std::map<std::string, std::string>;
    return *labels;
}

void
emitRecord(Record record)
{
    Sink *sink = defaultSink();
    if (!sink)
        return;
    // Record-local labels win over harness-wide defaults.
    for (const auto &[k, v] : defaultLabels())
        record.labels.emplace(k, v);
    sink->write(record);
}

void
emitHeadline(std::string name, double value,
             std::map<std::string, std::string> labels)
{
    Record rec;
    rec.kind = RecordKind::Headline;
    rec.name = std::move(name);
    rec.labels = std::move(labels);
    rec.value = value;
    emitRecord(std::move(rec));
}

namespace
{

std::atomic<bool> timeseriesArmed{false};
std::atomic<bool> perSimArmed{false};

/** The output armExport() opened, for finishExport()'s message. */
std::string &
exportPath()
{
    // Leaked for the same exit-order reason as the sink owner.
    static auto *path = new std::string;
    return *path;
}

/** The on/off rule of the export's environment switches. */
bool
envSwitch(const char *name)
{
    const char *env = std::getenv(name);
    return env && *env && std::strcmp(env, "0") != 0 &&
           std::strcmp(env, "off") != 0;
}

} // namespace

void
setTimeseriesEnabled(bool on)
{
    timeseriesArmed.store(on);
}

bool
timeseriesEnabled()
{
    return timeseriesArmed.load();
}

bool
perSimEnabled()
{
    return perSimArmed.load();
}

void
armExport(std::string path, bool timeseries, const char *bench)
{
    if (timeseries || envSwitch("KAGURA_METRICS_TIMESERIES"))
        setTimeseriesEnabled(true);
    perSimArmed.store(envSwitch("KAGURA_METRICS_PER_SIM"));
    if (path.empty()) {
        if (const char *env = std::getenv("KAGURA_METRICS_OUT"))
            path = env;
    }
    if (path.empty())
        return;
    auto sink = JsonLinesSink::open(path);
    if (!sink)
        fatal("cannot open metrics output '%s'", path.c_str());
    if (bench)
        defaultLabels()["bench"] = bench;
    setDefaultSink(std::move(sink));
    exportPath() = std::move(path);
}

void
finishExport()
{
    if (defaultSink() && !setDefaultSink(nullptr))
        fatal("cannot write metrics output '%s'", exportPath().c_str());
}

} // namespace metrics
} // namespace kagura
