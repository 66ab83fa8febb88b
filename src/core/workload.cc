#include "core/workload.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "mem/nvm.hh"

namespace kagura
{

namespace
{

/** The low @p size bytes of @p value into @p out, least first. */
const std::uint8_t *
littleEndian(std::uint64_t value, unsigned size, std::uint8_t *out)
{
    for (unsigned i = 0; i < size; ++i)
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
    return out;
}

} // namespace

std::size_t
ImageBytes::size() const
{
    std::size_t bytes = 0;
    for (const ImageRun &run : runs)
        bytes += run.bytes.size();
    return bytes;
}

Workload::Workload(std::string name, std::vector<MicroOp> ops,
                   std::vector<ImageRun> runs_)
    : label(std::move(name)), stream(std::move(ops)),
      runs(std::move(runs_))
{
    for (std::size_t i = 0; i < runs.size(); ++i) {
        kagura_assert(!runs[i].bytes.empty());
        kagura_assert(i == 0 || runs[i].base > runs[i - 1].end());
    }
    for (const MicroOp &op : stream) {
        const bool alu = op.type == MicroOp::Type::Alu;
        instructions += alu ? op.count : 1;
        memOps += !alu;
    }
}

void
Workload::applyImage(Nvm &nvm) const
{
    for (const ImageRun &run : runs)
        nvm.writeBytes(run.base, run.bytes.data(), run.bytes.size());
}

double
Workload::arithmeticIntensity() const
{
    const std::uint64_t mem = memoryOps();
    const std::uint64_t arith = committedInstructions() - mem;
    return mem ? static_cast<double>(arith) / static_cast<double>(mem)
               : static_cast<double>(arith);
}

TraceRecorder::TraceRecorder(Addr code_base, Addr data_base)
    : pc(code_base), codeBase(code_base), dataCursor(data_base)
{
}

void
TraceRecorder::record(MicroOp op)
{
    kagura_assert(pc <= maxPc);
    op.pc = static_cast<std::uint32_t>(pc);
    stream.push_back(op);
}

void
TraceRecorder::alu(unsigned count)
{
    kagura_assert(count > 0);
    // Each call starts its own ALU group, even right after another
    // one: fusing them would move the core's step boundaries, and
    // with them every result. Groups are capped at 4096 instructions.
    while (count > 0) {
        const unsigned batch = std::min<unsigned>(count, 4096);
        MicroOp op;
        op.type = MicroOp::Type::Alu;
        op.count = static_cast<std::uint16_t>(batch);
        record(op);
        pc += 4ULL * batch;
        count -= batch;
    }
}

std::uint64_t
TraceRecorder::load(Addr addr, unsigned size)
{
    kagura_assert(size >= 1 && size <= 8);
    MicroOp op;
    op.type = MicroOp::Type::Load;
    op.size = static_cast<std::uint8_t>(size);
    op.addr = addr;
    record(op);
    pc += 4;
    return peek(addr, size);
}

void
TraceRecorder::store(Addr addr, std::uint64_t value, unsigned size)
{
    kagura_assert(size >= 1 && size <= 8);
    MicroOp op;
    op.type = MicroOp::Type::Store;
    op.size = static_cast<std::uint8_t>(size);
    op.addr = addr;
    op.value = value;
    record(op);
    pc += 4;
    std::uint8_t bytes[8];
    memory.write(addr, littleEndian(value, size, bytes), size);
}

void
TraceRecorder::beginLoop()
{
    loops.push_back({pc, pc});
}

void
TraceRecorder::endIteration()
{
    kagura_assert(!loops.empty());
    LoopFrame &frame = loops.back();
    frame.maxEnd = std::max(frame.maxEnd, pc);
    pc = frame.start;
}

void
TraceRecorder::endLoop()
{
    kagura_assert(!loops.empty());
    LoopFrame frame = loops.back();
    loops.pop_back();
    pc = std::max(frame.maxEnd, pc) + 4;
}

void
TraceRecorder::initData(Addr addr, const void *bytes, std::size_t count)
{
    writeInit(addr, static_cast<const std::uint8_t *>(bytes), count);
}

void
TraceRecorder::initValue(Addr addr, std::uint64_t value, unsigned size)
{
    kagura_assert(size <= 8);
    std::uint8_t bytes[8];
    writeInit(addr, littleEndian(value, size, bytes), size);
}

void
TraceRecorder::writeInit(Addr addr, const std::uint8_t *bytes,
                         std::size_t count)
{
    if (count == 0)
        return;
    memory.write(addr, bytes, count);
    // A write that starts where the previous one ended extends it:
    // replaying the two in order or as one is the same.
    if (!initWrites.empty() &&
        initWrites.back().addr + initWrites.back().count == addr)
        initWrites.back().count += count;
    else
        initWrites.push_back({addr, initBytes.size(), count});
    initBytes.insert(initBytes.end(), bytes, bytes + count);
}

std::uint64_t
TraceRecorder::peek(Addr addr, unsigned size) const
{
    kagura_assert(size <= 8);
    std::uint8_t bytes[8] = {};
    memory.read(addr, bytes, size);
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i)
        value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return value;
}

Addr
TraceRecorder::allocate(std::size_t bytes)
{
    const Addr base = dataCursor;
    dataCursor += (bytes + 7) / 8 * 8;
    return base;
}

Workload
TraceRecorder::finish(std::string name)
{
    kagura_assert(loops.empty());

    // Fill the executed code range with synthetic instruction bytes so
    // the ICache sees realistic compressibility: embedded code mixes
    // dense 32-bit encodings (incompressible) with 16-bit/immediate-
    // heavy words (upper halfword zero -- FPC/BDI-friendly), roughly
    // 40/60. Without this the code region would read as all-zero NVM
    // and compress to nothing, wildly overstating ICache compression.
    Addr max_pc = pc;
    for (const MicroOp &op : stream) {
        const Addr end =
            op.pc + 4ULL * (op.type == MicroOp::Type::Alu ? op.count : 1);
        max_pc = std::max(max_pc, end);
    }
    const Addr code_end =
        codeBase + (max_pc + 4 - codeBase + 3) / 4 * 4;

    // The image is the union of the code range and every init write,
    // as maximal runs. Code bytes go in first and the init writes are
    // replayed over them in program order, so data wins over code and
    // the last write to a byte wins over earlier ones.
    std::vector<std::pair<Addr, Addr>> spans; // [begin, end)
    spans.reserve(initWrites.size() + 1);
    spans.emplace_back(codeBase, code_end);
    for (const InitWrite &write : initWrites)
        spans.emplace_back(write.addr, write.addr + write.count);
    std::sort(spans.begin(), spans.end());
    std::vector<ImageRun> runs;
    Addr run_end = 0;
    for (const auto &[begin, end] : spans) {
        if (runs.empty() || begin > run_end) {
            if (!runs.empty())
                runs.back().bytes.resize(run_end - runs.back().base);
            runs.push_back({begin, {}});
            run_end = end;
        }
        run_end = std::max(run_end, end);
    }
    runs.back().bytes.resize(run_end - runs.back().base);

    const auto bytesAt = [&runs](Addr addr) {
        const auto after = std::upper_bound(
            runs.begin(), runs.end(), addr,
            [](Addr a, const ImageRun &run) { return a < run.base; });
        ImageRun &run = *(after - 1);
        return run.bytes.data() + (addr - run.base);
    };
    std::uint8_t *code = bytesAt(codeBase);
    for (Addr word = codeBase; word < code_end; word += 4) {
        std::uint64_t h = word;
        std::uint32_t enc = static_cast<std::uint32_t>(splitMix64(h));
        if (enc % 100 < 60)
            enc &= 0xffffu; // 16-bit encoding padded to a word
        for (unsigned i = 0; i < 4; ++i)
            *code++ = static_cast<std::uint8_t>(enc >> (8 * i));
    }
    for (const InitWrite &write : initWrites)
        std::copy_n(initBytes.data() + write.offset, write.count,
                    bytesAt(write.addr));
    return Workload(std::move(name), std::move(stream), std::move(runs));
}

const Workload &
WorkloadMemo::get(const std::string &name)
{
    Entry *entry = nullptr;
    {
        // unordered_map never invalidates references on insert, so
        // the entry outlives the lock.
        std::lock_guard<std::mutex> lock(mutex);
        entry = &entries[name];
    }
    std::call_once(entry->built,
                   [&] { entry->workload.emplace(build(name)); });
    return *entry->workload;
}

const Workload &
cachedWorkload(const std::string &name)
{
    // Process-wide: shared by every Simulator, including concurrent
    // runner workers.
    static WorkloadMemo memo(&makeWorkload);
    return memo.get(name);
}

} // namespace kagura
