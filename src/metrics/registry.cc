#include "metrics/registry.hh"

#include <algorithm>

#include "common/logging.hh"

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

void
MetricSet::counter(std::string name, std::uint64_t value)
{
    Record &rec = records.emplace_back();
    rec.kind = RecordKind::Counter;
    rec.name = std::move(name);
    rec.value = static_cast<double>(value);
}

void
MetricSet::gauge(std::string name, double value)
{
    Record &rec = records.emplace_back();
    rec.kind = RecordKind::Gauge;
    rec.name = std::move(name);
    rec.value = value;
}

void
MetricSet::histogram(std::string name, std::vector<double> upper_bounds,
                     std::span<const double> samples, RecordKind kind)
{
    kagura_assert(kind == RecordKind::Histogram ||
                  kind == RecordKind::Timer);
    Record &rec = records.emplace_back();
    rec.kind = kind;
    rec.name = std::move(name);
    rec.bucketCounts.assign(upper_bounds.size() + 1, 0); // + overflow
    for (const double sample : samples) {
        std::size_t i = 0;
        while (i < upper_bounds.size() && sample > upper_bounds[i])
            ++i;
        ++rec.bucketCounts[i];
        rec.sum += sample;
    }
    rec.count = samples.size();
    rec.bounds = std::move(upper_bounds);
}

std::vector<Record>
MetricSet::snapshot() const
{
    std::vector<Record> out = records;
    std::sort(out.begin(), out.end(),
              [](const Record &a, const Record &b) {
                  return a.name < b.name;
              });
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i > 0 && out[i].name == out[i - 1].name)
            panic("metric '%s' recorded twice", out[i].name.c_str());
        out[i].labels = labelMap;
    }
    return out;
}

} // namespace metrics
} // namespace kagura
