#include "core/workload.hh"

#include <algorithm>

#include "common/rng.hh"

#include "common/logging.hh"
#include "mem/nvm.hh"

namespace kagura
{

Workload::Workload(std::string name, std::vector<MicroOp> ops,
                   std::map<Addr, std::uint8_t> image_)
    : label(std::move(name)), stream(std::move(ops)),
      image(std::move(image_))
{
    for (const auto &[addr, byte] : image) {
        if (runs.empty() ||
            runs.back().base + runs.back().bytes.size() != addr)
            runs.push_back({addr, {}});
        runs.back().bytes.push_back(byte);
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
TraceRecorder::alu(unsigned count)
{
    kagura_assert(count > 0);
    // Fuse into the previous ALU group when it is contiguous, capping
    // the group so PC arithmetic stays exact.
    while (count > 0) {
        const unsigned batch = std::min<unsigned>(count, 4096);
        MicroOp op;
        op.type = MicroOp::Type::Alu;
        op.count = static_cast<std::uint16_t>(batch);
        op.pc = pc;
        stream.push_back(op);
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
    op.pc = pc;
    op.addr = addr;
    stream.push_back(op);
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
    op.pc = pc;
    op.addr = addr;
    op.value = value;
    stream.push_back(op);
    pc += 4;
    writeMemory(addr, value, size, false);
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
    const auto *src = static_cast<const std::uint8_t *>(bytes);
    memory.write(addr, src, count);
    for (std::size_t i = 0; i < count; ++i)
        image[addr + i] = src[i];
}

void
TraceRecorder::initValue(Addr addr, std::uint64_t value, unsigned size)
{
    writeMemory(addr, value, size, true);
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
    for (Addr word = codeBase; word < max_pc + 4; word += 4) {
        std::uint64_t h = word;
        std::uint32_t enc = static_cast<std::uint32_t>(splitMix64(h));
        if (enc % 100 < 60)
            enc &= 0xffffu; // 16-bit encoding padded to a word
        for (unsigned i = 0; i < 4; ++i) {
            const Addr a = word + i;
            if (image.find(a) == image.end())
                image[a] = static_cast<std::uint8_t>(enc >> (8 * i));
        }
    }
    return Workload(std::move(name), std::move(stream), std::move(image));
}

void
TraceRecorder::writeMemory(Addr addr, std::uint64_t value, unsigned size,
                           bool record_image)
{
    kagura_assert(size <= 8);
    std::uint8_t bytes[8] = {};
    for (unsigned i = 0; i < size; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    memory.write(addr, bytes, size);
    if (record_image) {
        for (unsigned i = 0; i < size; ++i)
            image[addr + i] = bytes[i];
    }
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
