#include "mem/nvm.hh"

#include "common/logging.hh"

namespace kagura
{

Nvm::Nvm(NvmType type, std::uint64_t bytes)
    : tech(type), timing(nvmParams(type, bytes)), storage(bytes)
{
    if (bytes == 0)
        fatal("NVM capacity must be nonzero");
}

void
Nvm::readBytes(Addr addr, std::uint8_t *dst, std::size_t count) const
{
    storage.read(addr, dst, count);
}

void
Nvm::writeBytes(Addr addr, const std::uint8_t *src, std::size_t count)
{
    storage.write(addr, src, count);
}

void
Nvm::readBlock(Addr addr, MutByteSpan dst) const
{
    readBytes(addr, dst.data(), dst.size());
}

void
Nvm::fetchBlock(Addr base, MutByteSpan dst, hier::LevelEvents &ev, Cycles)
{
    readBlock(base, dst);
    noteBlockRead();
    ++ev.nvmBlockReads;
    ev.latency += timing.readLatency;
}

void
Nvm::absorbBlock(Addr base, ConstByteSpan src, hier::LevelEvents &ev, Cycles)
{
    writeBytes(base, src.data(), src.size());
    noteBlockWrite();
    ++ev.nvmBlockWrites;
}

} // namespace kagura
