#include "metrics/registry.hh"

#include "common/logging.hh"
#include "metrics/sink.hh"

namespace kagura
{
namespace metrics
{

const char *
recordKindName(RecordKind kind)
{
    switch (kind) {
      case RecordKind::Counter:
        return "counter";
      case RecordKind::Gauge:
        return "gauge";
      case RecordKind::Histogram:
        return "histogram";
      case RecordKind::Timer:
        return "timer";
      case RecordKind::Headline:
        return "headline";
    }
    panic("unknown RecordKind %d", static_cast<int>(kind));
}

/** Find-or-create under the caller-held registry mutex. */
Registry::Entry &
Registry::fetch(std::string_view name, RecordKind kind)
{
    auto it = entries.find(name);
    if (it == entries.end())
        it = entries
                 .emplace(std::string(name), Entry{kind, {}, {}, {}, {}})
                 .first;
    if (it->second.kind != kind)
        panic("metric '%s' requested as %s but registered as %s",
              std::string(name).c_str(), recordKindName(kind),
              recordKindName(it->second.kind));
    return it->second;
}

Counter &
Registry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex);
    Entry &entry = fetch(name, RecordKind::Counter);
    if (!entry.counter)
        entry.counter = std::make_unique<Counter>();
    return *entry.counter;
}

Gauge &
Registry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex);
    Entry &entry = fetch(name, RecordKind::Gauge);
    if (!entry.gauge)
        entry.gauge = std::make_unique<Gauge>();
    return *entry.gauge;
}

FixedHistogram &
Registry::histogram(std::string_view name,
                    std::vector<double> upper_bounds)
{
    std::lock_guard<std::mutex> lock(mutex);
    Entry &entry = fetch(name, RecordKind::Histogram);
    if (!entry.histogram)
        entry.histogram =
            std::make_unique<FixedHistogram>(std::move(upper_bounds));
    return *entry.histogram;
}

Timer &
Registry::timer(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex);
    Entry &entry = fetch(name, RecordKind::Timer);
    if (!entry.timer)
        entry.timer = std::make_unique<Timer>();
    return *entry.timer;
}

namespace
{

/** Flatten a histogram into the record payload fields. */
void
fillHistogram(Record &rec, const FixedHistogram &hist)
{
    rec.count = hist.count();
    rec.sum = hist.sum();
    rec.bounds = hist.bounds();
    rec.bucketCounts.reserve(hist.buckets());
    for (std::size_t i = 0; i < hist.buckets(); ++i)
        rec.bucketCounts.push_back(hist.bucketCount(i));
}

} // namespace

std::vector<Record>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<Record> out;
    out.reserve(entries.size());
    for (const auto &[name, entry] : entries) {
        Record rec;
        rec.kind = entry.kind;
        rec.name = name;
        rec.labels = labelMap;
        switch (entry.kind) {
          case RecordKind::Counter:
            rec.value = static_cast<double>(entry.counter->get());
            break;
          case RecordKind::Gauge:
            rec.value = entry.gauge->get();
            break;
          case RecordKind::Histogram:
            fillHistogram(rec, *entry.histogram);
            break;
          case RecordKind::Timer:
            fillHistogram(rec, entry.timer->histogram());
            break;
          case RecordKind::Headline:
            panic("headline records are never interned instruments");
        }
        out.push_back(std::move(rec));
    }
    return out;
}

void
Registry::emit(Sink &sink) const
{
    for (Record &rec : snapshot())
        sink.write(rec);
}

std::size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

} // namespace metrics
} // namespace kagura
