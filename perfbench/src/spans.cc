#include "spans.hh"

#include <cstdio>

#include "stats.hh"

namespace perfbench
{

int
SpanRecorder::begin(std::string name)
{
    const double now = nowSeconds();
    if (epoch < 0.0)
        epoch = now;
    Span span;
    span.name = std::move(name);
    span.startSeconds = now - epoch;
    span.parent = open.empty() ? -1 : open.back();
    recorded.push_back(std::move(span));
    const int id = static_cast<int>(recorded.size() - 1);
    open.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    recorded[static_cast<std::size_t>(id)].endSeconds =
        nowSeconds() - epoch;
    if (!open.empty() && open.back() == id)
        open.pop_back();
}

namespace
{

std::string
jsonEscaped(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"cat\":\"perfbench\","
                     "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                     i ? "," : "", jsonEscaped(s.name).c_str(),
                     s.startSeconds * 1e6,
                     (s.endSeconds - s.startSeconds) * 1e6, i, s.parent);
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

SpanScope::SpanScope(SpanRecorder *recorder, std::string name)
    : rec(recorder)
{
    if (rec)
        id = rec->begin(std::move(name));
}

SpanScope::~SpanScope()
{
    if (rec)
        rec->end(id);
}

} // namespace perfbench
