#include "core/core.hh"

#include <cstring>

#include "common/logging.hh"

namespace kagura
{

Core::Core(Cache &icache_, Cache &dcache_)
    : icache(icache_), dcache(dcache_)
{
}

void
Core::merge(AccessOutcome &dst, const AccessOutcome &src)
{
    dst.nvmBlockReads += src.nvmBlockReads;
    dst.nvmBlockWrites += src.nvmBlockWrites;
    dst.compressions += src.compressions;
    dst.decompressions += src.decompressions;
    dst.evictions += src.evictions;
    dst.latency += src.latency;
    if (src.hit)
        dst.hit = true;
}

void
Core::fetch(Addr pc, Cycles now, StepResult &result)
{
    const Addr block = icache.blockOf(pc);
    if (fetchBlockValid && block == fetchBlock) {
        // Line-buffer hit: the instruction issues without touching the
        // ICache array (one pipeline cycle, no array energy).
        ++result.cycles;
        return;
    }
    AccessOutcome access = icache.access(pc, false, nullptr, 4, now);
    merge(result.icache, access);
    ++result.icacheArrayAccesses;
    result.cycles += access.latency;
    fetchBlockValid = true;
    fetchBlock = block;
}

StepResult
Core::step(const MicroOp &op, Cycles now)
{
    StepResult result;

    if (op.type == MicroOp::Type::Alu) {
        for (unsigned i = 0; i < op.count; ++i)
            fetch(op.pc + 4ULL * i, now, result);
        result.instructions = op.count;
        return result;
    }

    // Memory op: fetch the instruction, then access the DCache.
    fetch(op.pc, now, result);

    result.instructions = 1;
    result.isMem = true;
    result.isStore = op.type == MicroOp::Type::Store;

    std::uint8_t bytes[8];
    if (result.isStore) {
        for (unsigned i = 0; i < op.size; ++i)
            bytes[i] = static_cast<std::uint8_t>(op.value >> (8 * i));
    }
    result.dcache = dcache.access(op.addr, result.isStore, bytes, op.size,
                                  now);
    result.cycles += result.dcache.latency;
    return result;
}

} // namespace kagura
