#include "trace/trace_writer.hh"

#include <cstring>

#include "common/logging.hh"
#include "trace/format.hh"

namespace kagura
{
namespace trace
{

namespace
{

/** Flush the op buffer once it crosses this size (bounded memory). */
constexpr std::size_t flushThreshold = 1 << 16;

void
putU16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>(v >> 8));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

/** RLE-encode @p bytes (see format.hh for the token grammar). */
void
encodeRle(std::string &out, const std::vector<std::uint8_t> &bytes)
{
    std::size_t i = 0;
    while (i < bytes.size()) {
        // Measure the run of identical bytes starting here.
        std::size_t run = 1;
        while (i + run < bytes.size() && bytes[i + run] == bytes[i])
            ++run;
        if (run >= 3) {
            putVarint(out, ((run - 1) << 1) | 1);
            out.push_back(static_cast<char>(bytes[i]));
            i += run;
            continue;
        }
        // Gather literals until the next run of >= 3 (or the end).
        std::size_t lit_end = i;
        while (lit_end < bytes.size()) {
            std::size_t r = 1;
            while (lit_end + r < bytes.size() &&
                   bytes[lit_end + r] == bytes[lit_end])
                ++r;
            if (r >= 3)
                break;
            lit_end += r;
        }
        const std::size_t count = lit_end - i;
        putVarint(out, (count - 1) << 1);
        out.append(reinterpret_cast<const char *>(bytes.data() + i),
                   count);
        i = lit_end;
    }
}

} // namespace

TraceWriter::TraceWriter(const std::string &path_,
                         const std::string &name, unsigned block_size)
    : path(path_), checksum(fnvOffset())
{
    if (name.size() > 0xffff)
        fatal("trace workload name too long (%zu bytes)", name.size());
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        fatal("cannot open trace file '%s' for writing", path.c_str());

    // Provisional header; the u64 counts are back-patched by finish().
    std::string header;
    header.append(fileMagic, sizeof(fileMagic));
    putU16(header, formatVersion);
    putU16(header, 0); // flags
    putU32(header, block_size);
    for (int field = 0; field < 5; ++field)
        putU64(header, 0); // opCount, extents, imageBytes, payload sizes
    putU64(header, 0);     // checksum
    putU16(header, static_cast<std::uint16_t>(name.size()));
    header += name;
    if (std::fwrite(header.data(), 1, header.size(), file) !=
        header.size())
        fatal("cannot write trace header to '%s'", path.c_str());
}

TraceWriter::~TraceWriter()
{
    if (file) {
        // finish() was never reached (error path); don't leave a
        // plausible-looking partial trace behind.
        std::fclose(file);
        std::remove(path.c_str());
    }
}

void
TraceWriter::append(const MicroOp &op)
{
    kagura_assert(!finished);
    switch (op.type) {
      case MicroOp::Type::Alu: {
        const std::uint64_t count = op.count;
        kagura_assert(count > 0);
        unsigned ctl = static_cast<unsigned>(OpKind::Alu);
        const bool sequential = op.pc == prevPc;
        if (sequential)
            ctl |= 1u << 2;
        if (count <= 31)
            ctl |= static_cast<unsigned>(count) << 3;
        opsBuffer.push_back(static_cast<char>(ctl));
        if (count > 31)
            putVarint(opsBuffer, count);
        if (!sequential)
            putVarint(opsBuffer,
                      zigzagEncode(static_cast<std::int64_t>(op.pc) -
                                   static_cast<std::int64_t>(prevPc)));
        prevPc = op.pc + 4 * count;
        break;
      }
      case MicroOp::Type::Load:
      case MicroOp::Type::Store: {
        kagura_assert(op.size >= 1 && op.size <= 8);
        const bool is_store = op.type == MicroOp::Type::Store;
        unsigned ctl = static_cast<unsigned>(is_store ? OpKind::Store
                                                      : OpKind::Load);
        ctl |= static_cast<unsigned>(op.size - 1) << 2;
        const bool sequential = op.pc == prevPc;
        if (sequential)
            ctl |= 1u << 5;
        opsBuffer.push_back(static_cast<char>(ctl));
        if (!sequential)
            putVarint(opsBuffer,
                      zigzagEncode(static_cast<std::int64_t>(op.pc) -
                                   static_cast<std::int64_t>(prevPc)));
        putVarint(opsBuffer,
                  zigzagEncode(static_cast<std::int64_t>(op.addr) -
                               static_cast<std::int64_t>(prevAddr)));
        if (is_store)
            putVarint(opsBuffer, op.value);
        prevPc = op.pc + 4ULL;
        prevAddr = op.addr;
        break;
      }
    }
    ++opCount;
    if (opsBuffer.size() >= flushThreshold)
        flushOps();
}

void
TraceWriter::flushOps()
{
    if (opsBuffer.empty())
        return;
    checksum = fnvFold(checksum, opsBuffer.data(), opsBuffer.size());
    if (std::fwrite(opsBuffer.data(), 1, opsBuffer.size(), file) !=
        opsBuffer.size())
        fatal("cannot write trace ops to '%s'", path.c_str());
    opsBytes += opsBuffer.size();
    opsBuffer.clear();
}

void
TraceWriter::finish(const std::vector<ImageRun> &image)
{
    kagura_assert(!finished);
    flushOps();

    // Encode the image as contiguous extents of RLE-coded bytes.
    std::string payload;
    std::uint64_t image_bytes = 0;
    Addr prev_end = 0;
    for (const ImageRun &run : image) {
        kagura_assert(!run.bytes.empty() && run.base >= prev_end);
        putVarint(payload,
                  zigzagEncode(static_cast<std::int64_t>(run.base) -
                               static_cast<std::int64_t>(prev_end)));
        putVarint(payload, run.bytes.size());
        encodeRle(payload, run.bytes);
        prev_end = run.end();
        image_bytes += run.bytes.size();
    }
    checksum = fnvFold(checksum, payload.data(), payload.size());
    if (!payload.empty() &&
        std::fwrite(payload.data(), 1, payload.size(), file) !=
            payload.size())
        fatal("cannot write trace image to '%s'", path.c_str());

    // Back-patch the counts (offset 16 = magic + version + flags +
    // blockSize; see format.hh).
    std::string counts;
    putU64(counts, opCount);
    putU64(counts, image.size());
    putU64(counts, image_bytes);
    putU64(counts, opsBytes);
    putU64(counts, payload.size());
    putU64(counts, checksum);
    if (std::fseek(file, 16, SEEK_SET) != 0 ||
        std::fwrite(counts.data(), 1, counts.size(), file) !=
            counts.size() ||
        std::fflush(file) != 0)
        fatal("cannot seal trace file '%s'", path.c_str());
    std::fclose(file);
    file = nullptr;
    finished = true;
}

void
writeTrace(const Workload &workload, const std::string &path,
           unsigned block_size)
{
    TraceWriter writer(path, workload.name(), block_size);
    for (const MicroOp &op : workload.ops())
        writer.append(op);
    writer.finish(workload.imageRuns());
}

} // namespace trace
} // namespace kagura
