/**
 * @file
 * TraceReader: streaming access to kagura.trace/v1 files with bounded
 * memory -- ops decode one at a time through a fixed-size file
 * buffer, so `kagura_trace info/validate` never materialise a
 * workload. loadTraceWorkload() materialises the whole stream for the
 * simulator (which replays from a vector).
 */

#ifndef KAGURA_TRACE_TRACE_READER_HH
#define KAGURA_TRACE_TRACE_READER_HH

#include <cstdio>
#include <functional>
#include <string>

#include "core/workload.hh"

namespace kagura
{
namespace trace
{

/** Parsed header of a trace file. */
struct TraceInfo
{
    std::string name;
    std::uint16_t version = 0;
    std::uint32_t blockSize = 0;
    std::uint64_t opCount = 0;
    std::uint64_t imageExtents = 0;
    std::uint64_t imageBytes = 0;
    std::uint64_t opsBytes = 0;
    std::uint64_t imagePayloadBytes = 0;
    std::uint64_t checksum = 0;
};

/**
 * Why a trace was rejected. The range checks of format.hh (a PC must
 * fit the core's 32 bits; image extents ascend without overlapping
 * and end below 2^64) have kinds of their own; every other fault is
 * Malformed, and error() says what broke.
 */
enum class TraceError : std::uint8_t
{
    None,
    Malformed,
    PcTooWide,       ///< an op's PC is 2^32 or more
    ExtentBackwards, ///< an image extent starts below the previous one
    ExtentOverlaps,  ///< an image extent starts inside the previous one
    ExtentWraps,     ///< an image extent runs past 2^64
};

/** Streaming kagura.trace/v1 decoder. */
class TraceReader
{
  public:
    /**
     * Open @p path and parse the header. On malformed input, sets
     * an error (see ok()/error()) rather than exiting, so callers
     * can report context; every later accessor requires ok().
     */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** False when the open/header parse failed. */
    bool ok() const { return problem.empty(); }

    /** Description of the failure when !ok(). */
    const std::string &error() const { return problem; }

    /** The kind of failure (None while ok()). */
    TraceError errorKind() const { return ok() ? TraceError::None : kind; }

    /** Header fields (valid when ok()). */
    const TraceInfo &info() const { return header; }

    /**
     * Decode the next op into @p out. Returns false at the end of
     * the op stream or on corruption (then !ok() and error() says
     * what broke; a clean end keeps ok() true).
     */
    bool next(MicroOp &out);

    /**
     * Decode the image payload (call after the op stream is
     * exhausted; streams extent by extent). @p sink receives each
     * decoded piece in ascending address order as (address, byte,
     * count): @p count copies of @p byte from @p address on, so an
     * RLE run costs one call whatever its length. Returns false on
     * corruption.
     */
    using ImageSink =
        std::function<void(Addr addr, std::uint8_t byte,
                           std::uint64_t count)>;
    bool readImage(const ImageSink &sink);

    /**
     * True once the whole file has been consumed and the payload
     * checksum matched the header.
     */
    bool checksumOk() const { return sawChecksum; }

  private:
    bool fill();
    bool readByte(std::uint8_t &out);
    bool readVarint(std::uint64_t &out);
    /** The next op's PC: prevPc, or prevPc plus a delta read here. */
    bool readPc(bool sequential, const char *where, std::uint32_t &out);
    bool failParse(const std::string &what,
                   TraceError why = TraceError::Malformed);

    std::FILE *file = nullptr;
    std::string path;
    std::string problem;
    TraceError kind = TraceError::Malformed;
    TraceInfo header;

    std::string buffer;
    std::size_t bufferPos = 0;
    std::uint64_t payloadConsumed = 0;
    std::uint64_t runningChecksum;
    std::uint64_t opsRead = 0;
    Addr prevPc = 0;
    Addr prevAddr = 0;
    bool sawChecksum = false;
};

/** Parse just the header of @p path; fatal on malformed input. */
TraceInfo readTraceInfo(const std::string &path);

/**
 * Full structural validation: header, every op, every image extent,
 * declared counts, and the payload checksum. Returns true when the
 * file is sound; otherwise fills @p error.
 */
bool validateTrace(const std::string &path, std::string *error);

/**
 * Load @p path as a Workload (the replay path). The returned
 * workload carries the name recorded in the trace, so simulator
 * results from a replay compare bit-identical to the original run.
 * Fatal on any malformed input -- a trace-backed SimConfig must
 * never silently fall back.
 */
Workload loadTraceWorkload(const std::string &path);

} // namespace trace
} // namespace kagura

#endif // KAGURA_TRACE_TRACE_READER_HH
