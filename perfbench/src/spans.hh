/**
 * @file
 * In-memory span recorder for traced runs. Spans (name, start, end,
 * parent) nest by scope on one thread; writeChromeTrace() dumps them
 * as Chrome trace-event JSON, which chrome://tracing and Perfetto open
 * directly.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <string>
#include <vector>

namespace perfbench
{

/** Records spans on the thread that drives the traced run. */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double startSeconds = 0.0;
        double endSeconds = 0.0;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
    };

    /** Open a span as a child of the innermost open one. */
    int begin(std::string name);

    /** Close span @p id (the innermost open one). */
    void end(int id);

    const std::vector<Span> &spans() const { return recorded; }

    /** Write every closed span to @p path; false on an I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> recorded;
    std::vector<int> open;
    double epoch = -1.0;
};

/**
 * RAII span; a null recorder makes it a no-op, so replay code runs the
 * same with tracing on or off.
 */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *recorder, std::string name);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec;
    int id = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
