/**
 * @file
 * TraceWriter: record a micro-op stream (and its initial memory
 * image) to a kagura.trace/v1 file. Ops stream through a bounded
 * in-memory buffer that is flushed to disk as it fills, so recording
 * a workload never needs more than a few hundred kilobytes of state
 * beyond the workload itself; the fixed-width header counts are
 * back-patched when finish() seals the file.
 */

#ifndef KAGURA_TRACE_TRACE_WRITER_HH
#define KAGURA_TRACE_TRACE_WRITER_HH

#include <cstdio>
#include <string>
#include <vector>

#include "core/workload.hh"

namespace kagura
{
namespace trace
{

/** Streaming kagura.trace/v1 writer. */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit a provisional header.
     * @param name Workload name stored in the trace (replay keeps it,
     *             so replayed results compare equal to the original).
     * @param block_size Recording cache block size (informational).
     * Fatal on I/O failure.
     */
    TraceWriter(const std::string &path, const std::string &name,
                unsigned block_size = 32);

    /** finish() must have been called; aborts the file otherwise. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one committed micro-op (call in stream order). */
    void append(const MicroOp &op);

    /**
     * Seal the file: encode @p image (a Workload's runs: ascending,
     * none touching the next) one extent per run, then back-patch
     * the header.
     */
    void finish(const std::vector<ImageRun> &image = {});

  private:
    void flushOps();

    std::FILE *file = nullptr;
    std::string path;
    std::string opsBuffer;
    std::uint64_t opCount = 0;
    std::uint64_t opsBytes = 0;
    std::uint64_t checksum;
    Addr prevPc = 0;
    Addr prevAddr = 0;
    bool finished = false;
};

/**
 * Record @p workload to @p path in one call (the `kagura_trace
 * record` path): every committed micro-op plus the initial image.
 */
void writeTrace(const Workload &workload, const std::string &path,
                unsigned block_size = 32);

} // namespace trace
} // namespace kagura

#endif // KAGURA_TRACE_TRACE_WRITER_HH
