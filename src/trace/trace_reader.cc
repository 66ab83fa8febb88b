#include "trace/trace_reader.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "trace/format.hh"

namespace kagura
{
namespace trace
{

namespace
{

/** File-buffer refill granularity (the reader's memory bound). */
constexpr std::size_t bufferBytes = 1 << 16;

std::uint16_t
getU16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

TraceReader::TraceReader(const std::string &path_)
    : path(path_), runningChecksum(fnvOffset())
{
    file = std::fopen(path.c_str(), "rb");
    if (!file) {
        problem = "cannot open trace file '" + path + "'";
        return;
    }

    unsigned char fixed[fixedHeaderBytes];
    if (std::fread(fixed, 1, sizeof(fixed), file) != sizeof(fixed)) {
        problem = "'" + path + "' is too short for a trace header";
        return;
    }
    if (std::memcmp(fixed, fileMagic, sizeof(fileMagic)) != 0) {
        problem = "'" + path + "' is not a kagura.trace file "
                  "(bad magic)";
        return;
    }
    header.version = getU16(fixed + 8);
    if (header.version != formatVersion) {
        problem = "'" + path + "' has unsupported trace version " +
                  std::to_string(header.version);
        return;
    }
    header.blockSize = getU32(fixed + 12);
    header.opCount = getU64(fixed + 16);
    header.imageExtents = getU64(fixed + 24);
    header.imageBytes = getU64(fixed + 32);
    header.opsBytes = getU64(fixed + 40);
    header.imagePayloadBytes = getU64(fixed + 48);
    header.checksum = getU64(fixed + 56);
    const std::uint16_t name_len = getU16(fixed + 64);
    header.name.resize(name_len);
    if (name_len > 0 &&
        std::fread(header.name.data(), 1, name_len, file) != name_len) {
        problem = "'" + path + "' is truncated inside the header name";
        return;
    }
}

TraceReader::~TraceReader()
{
    if (file)
        std::fclose(file);
}

bool
TraceReader::fill()
{
    if (bufferPos < buffer.size())
        return true;
    buffer.resize(bufferBytes);
    const std::size_t n = std::fread(buffer.data(), 1, bufferBytes, file);
    buffer.resize(n);
    bufferPos = 0;
    return n > 0;
}

bool
TraceReader::readByte(std::uint8_t &out)
{
    if (!fill())
        return false;
    out = static_cast<std::uint8_t>(buffer[bufferPos++]);
    runningChecksum = fnvFold(runningChecksum, &out, 1);
    ++payloadConsumed;
    return true;
}

bool
TraceReader::readVarint(std::uint64_t &out)
{
    out = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        std::uint8_t byte;
        if (!readByte(byte))
            return false;
        if (shift == 63 && (byte & 0x7e))
            return false; // would overflow 64 bits
        out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
    }
    return false;
}

bool
TraceReader::failParse(const std::string &what, TraceError why)
{
    if (problem.empty()) {
        problem = "'" + path + "': " + what;
        kind = why;
    }
    return false;
}

bool
TraceReader::readPc(bool sequential, const char *where, std::uint32_t &out)
{
    Addr pc = prevPc;
    if (!sequential) {
        std::uint64_t delta;
        if (!readVarint(delta))
            return failParse(std::string("op stream truncated in ") +
                             where);
        pc = static_cast<Addr>(static_cast<std::int64_t>(prevPc) +
                               zigzagDecode(delta));
    }
    if (pc > maxPc)
        return failParse("op " + std::to_string(opsRead) + " has pc " +
                             std::to_string(pc) +
                             ", past the core's 32-bit address space",
                         TraceError::PcTooWide);
    out = static_cast<std::uint32_t>(pc);
    return true;
}

bool
TraceReader::next(MicroOp &out)
{
    if (!ok() || opsRead >= header.opCount)
        return false;

    std::uint8_t ctl;
    if (!readByte(ctl))
        return failParse("op stream truncated");

    const auto kind = static_cast<OpKind>(ctl & 0x3);
    switch (kind) {
      case OpKind::Alu: {
        out.type = MicroOp::Type::Alu;
        out.size = 0;
        out.addr = 0;
        out.value = 0;
        std::uint64_t count = ctl >> 3;
        if (count == 0 && !readVarint(count))
            return failParse("op stream truncated in ALU count");
        if (count == 0 || count > 0xffff)
            return failParse("corrupt ALU count");
        out.count = static_cast<std::uint16_t>(count);
        if (!readPc(ctl & (1u << 2), "ALU pc", out.pc))
            return false;
        prevPc = out.pc + 4ULL * count;
        break;
      }
      case OpKind::Load:
      case OpKind::Store: {
        out.type = kind == OpKind::Store ? MicroOp::Type::Store
                                         : MicroOp::Type::Load;
        out.count = 1;
        out.size = static_cast<std::uint8_t>(((ctl >> 2) & 0x7) + 1);
        if (!readPc(ctl & (1u << 5), "pc delta", out.pc))
            return false;
        std::uint64_t addr_delta;
        if (!readVarint(addr_delta))
            return failParse("op stream truncated in address delta");
        out.addr = static_cast<Addr>(
            static_cast<std::int64_t>(prevAddr) +
            zigzagDecode(addr_delta));
        out.value = 0;
        if (kind == OpKind::Store &&
            !readVarint(out.value))
            return failParse("op stream truncated in store value");
        prevPc = out.pc + 4ULL;
        prevAddr = out.addr;
        break;
      }
      default:
        return failParse("corrupt op control byte");
    }

    ++opsRead;
    if (payloadConsumed > header.opsBytes)
        return failParse("op stream overruns its declared size");
    if (opsRead == header.opCount && payloadConsumed != header.opsBytes)
        return failParse("op payload size does not match the header");
    return true;
}

bool
TraceReader::readImage(const ImageSink &sink)
{
    if (!ok())
        return false;
    if (opsRead != header.opCount)
        return failParse("image read before the op stream finished");

    Addr prev_start = 0;
    Addr prev_end = 0;
    std::uint64_t total_bytes = 0;
    for (std::uint64_t extent = 0; extent < header.imageExtents;
         ++extent) {
        std::uint64_t gap, length;
        if (!readVarint(gap) || !readVarint(length))
            return failParse("image payload truncated in extent header");
        // Extents ascend: each starts at or after the previous one's
        // end, so a negative gap is never valid.
        const std::int64_t delta = zigzagDecode(gap);
        if (delta < 0) {
            const std::uint64_t back = 0 - static_cast<std::uint64_t>(delta);
            if (extent > 0 && back <= prev_end - prev_start)
                return failParse("image extent " + std::to_string(extent) +
                                     " overlaps the previous one",
                                 TraceError::ExtentOverlaps);
            return failParse("image extent " + std::to_string(extent) +
                                 " starts below the previous one",
                             TraceError::ExtentBackwards);
        }
        const Addr start = prev_end + static_cast<std::uint64_t>(delta);
        if (start < prev_end || length > ~start)
            return failParse("image extent " + std::to_string(extent) +
                                 " runs past 2^64",
                             TraceError::ExtentWraps);
        if (length > header.imageBytes - total_bytes)
            return failParse("image extents exceed the header's byte "
                             "count");
        Addr addr = start;
        std::uint64_t remaining = length;
        while (remaining > 0) {
            std::uint64_t token;
            if (!readVarint(token))
                return failParse("image payload truncated in RLE token");
            const std::uint64_t count = (token >> 1) + 1;
            if (count > remaining)
                return failParse("RLE token overruns its extent");
            if (token & 1) {
                std::uint8_t byte;
                if (!readByte(byte))
                    return failParse("image payload truncated in run");
                sink(addr, byte, count);
                addr += count;
            } else {
                for (std::uint64_t i = 0; i < count; ++i) {
                    std::uint8_t byte;
                    if (!readByte(byte))
                        return failParse(
                            "image payload truncated in literals");
                    sink(addr++, byte, 1);
                }
            }
            remaining -= count;
        }
        prev_start = start;
        prev_end = start + length;
        total_bytes += length;
    }

    if (total_bytes != header.imageBytes)
        return failParse("image byte count does not match the header");
    if (payloadConsumed !=
        header.opsBytes + header.imagePayloadBytes)
        return failParse("image payload size does not match the header");
    if (runningChecksum != header.checksum)
        return failParse("payload checksum mismatch (corrupt trace)");
    // Nothing may trail the declared payloads.
    std::uint8_t trailing;
    if (fill() || std::fread(&trailing, 1, 1, file) == 1)
        return failParse("trailing bytes after the image payload");
    sawChecksum = true;
    return true;
}

TraceInfo
readTraceInfo(const std::string &path)
{
    TraceReader reader(path);
    if (!reader.ok())
        fatal("%s", reader.error().c_str());
    return reader.info();
}

bool
validateTrace(const std::string &path, std::string *error)
{
    TraceReader reader(path);
    const auto fail = [&] {
        if (error)
            *error = reader.error().empty()
                         ? "'" + path + "': malformed trace"
                         : reader.error();
        return false;
    };
    if (!reader.ok())
        return fail();
    MicroOp op;
    std::uint64_t ops = 0;
    while (reader.next(op))
        ++ops;
    if (!reader.ok())
        return fail();
    if (ops != reader.info().opCount) {
        if (error)
            *error = "'" + path + "': op stream ended after " +
                     std::to_string(ops) + " of " +
                     std::to_string(reader.info().opCount) + " ops";
        return false;
    }
    if (!reader.readImage([](Addr, std::uint8_t, std::uint64_t) {}))
        return fail();
    return true;
}

Workload
loadTraceWorkload(const std::string &path)
{
    TraceReader reader(path);
    if (!reader.ok())
        fatal("%s", reader.error().c_str());

    // Every op takes at least one payload byte, which bounds the
    // reservation whatever the header claims.
    std::vector<MicroOp> ops;
    ops.reserve(std::min(reader.info().opCount, reader.info().opsBytes));
    MicroOp op;
    while (reader.next(op))
        ops.push_back(op);
    if (!reader.ok() || ops.size() != reader.info().opCount)
        fatal("%s", reader.ok()
                        ? ("'" + path + "': truncated op stream").c_str()
                        : reader.error().c_str());

    // Extents arrive in ascending order; one that starts where the
    // last ended continues its run.
    std::vector<ImageRun> runs;
    if (!reader.readImage([&runs](Addr addr, std::uint8_t byte,
                                  std::uint64_t count) {
            if (runs.empty() || runs.back().end() != addr)
                runs.push_back({addr, {}});
            runs.back().bytes.insert(runs.back().bytes.end(), count, byte);
        }))
        fatal("%s", reader.error().c_str());

    return Workload(reader.info().name, std::move(ops), std::move(runs));
}

} // namespace trace
} // namespace kagura
