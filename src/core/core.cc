#include "core/core.hh"

#include <cstring>
#include <new>

#include "common/logging.hh"

namespace kagura
{

Core::Core(Cache &icache_, Cache &dcache_)
    : icache(icache_), dcache(dcache_)
{
}

void
Core::fetchFromArray(Addr pc, Cycles now, StepResult &result)
{
    const AccessOutcome access = icache.access(pc, false, nullptr, 4, now);
    result.icache += access;
    ++result.icacheArrayAccesses;
    result.cycles += access.latency;
    fetchBlockValid = true;
    fetchBlock = icache.blockOf(pc);
}

StepResult
Core::step(const MicroOp &op, Cycles now)
{
    // One named result for every path, so it is built in the caller's
    // slot rather than copied out at a return.
    const bool alu = op.type == MicroOp::Type::Alu;
    const bool is_store = op.type == MicroOp::Type::Store;
    StepResult result(alu ? op.count : 1, !alu, is_store);

    if (alu) {
        // One fetch per I-cache block the group crosses: after it the
        // line buffer holds the block, so the block's remaining
        // instructions each issue in one cycle without an array access.
        const Addr block_mask = icache.config().blockSize - 1;
        const Addr end = op.pc + 4ULL * op.count;
        for (Addr pc = op.pc; pc < end;) {
            const Addr block_end = (pc | block_mask) + 1;
            const Addr stop = block_end < end ? block_end : end;
            fetch(pc, now, result);
            result.cycles += (stop - pc - 1) / 4;
            pc += (stop - pc + 3) / 4 * 4;
        }
        return result;
    }

    // Memory op: fetch the instruction, then access the DCache.
    fetch(op.pc, now, result);

    // Stores carry their bytes into the line; a load's value is never
    // read (the op stream already holds every value), so the cache
    // skips its copy.
    std::uint8_t bytes[8];
    if (is_store) {
        for (unsigned i = 0; i < op.size; ++i)
            bytes[i] = static_cast<std::uint8_t>(op.value >> (8 * i));
    }
    // The cache builds its outcome in place: copying a just-returned
    // outcome would read its counters back while the callee's stores
    // to them are still in flight (a store-forwarding stall).
    ::new (&result.dcache) AccessOutcome(dcache.access(
        op.addr, is_store, is_store ? bytes : nullptr, op.size, now));
    result.cycles += result.dcache.latency;
    return result;
}

} // namespace kagura
