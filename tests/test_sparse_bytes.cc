/**
 * @file
 * Tests for the paged byte store behind the NVM array and the
 * workload recorder: zero-default reads, wrap-around at a capacity
 * that is not page- or block-aligned, equivalence with a flat array
 * under seeded random traffic, and lazy allocation of a large NVM.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <vector>

#include "common/block.hh"
#include "common/rng.hh"
#include "core/workload.hh"
#include "mem/nvm.hh"
#include "mem/sparse_bytes.hh"

namespace kagura
{
namespace
{

/** Three pages plus a tail that is a multiple of neither 4 KiB nor 32. */
constexpr std::uint64_t oddCapacity = 3 * SparseBytes::pageBytes + 1000;

TEST(SparseBytes, UntouchedBytesReadZero)
{
    SparseBytes store(oddCapacity);
    std::vector<std::uint8_t> out(2 * SparseBytes::pageBytes, 0xff);
    store.read(100, out.data(), out.size());
    for (std::uint8_t byte : out)
        ASSERT_EQ(byte, 0);
    EXPECT_EQ(store.pagesTouched(), 0u) << "a read materialised a page";

    const std::uint8_t one = 0x5a;
    store.write(5000, &one, 1);
    EXPECT_EQ(store.pagesTouched(), 1u);
    std::uint8_t around[3] = {0xff, 0xff, 0xff};
    store.read(4999, around, 3);
    EXPECT_EQ(around[0], 0);
    EXPECT_EQ(around[1], 0x5a);
    EXPECT_EQ(around[2], 0);
}

TEST(SparseBytes, BlockStraddlingTheCapacityEndWraps)
{
    SparseBytes store(oddCapacity);
    std::uint8_t block[32];
    for (unsigned i = 0; i < 32; ++i)
        block[i] = static_cast<std::uint8_t>(i + 1);

    // Twelve bytes fit below the end; the other twenty land at 0.
    store.write(oddCapacity - 12, block, sizeof(block));
    std::uint8_t byte = 0;
    store.read(oddCapacity - 1, &byte, 1);
    EXPECT_EQ(byte, 12);
    store.read(0, &byte, 1);
    EXPECT_EQ(byte, 13);
    store.read(19, &byte, 1);
    EXPECT_EQ(byte, 32);
    store.read(20, &byte, 1);
    EXPECT_EQ(byte, 0);

    // The same block reads back whole, from its address and from an
    // alias one capacity higher.
    for (std::uint64_t addr :
         {oddCapacity - 12, 2 * oddCapacity - 12}) {
        std::uint8_t back[32] = {};
        store.read(addr, back, sizeof(back));
        EXPECT_EQ(std::memcmp(back, block, sizeof(block)), 0)
            << "addr " << addr;
    }
}

TEST(SparseBytes, UnboundedSpaceWrapsAtTwoToTheSixtyFour)
{
    SparseBytes store;
    const std::uint8_t bytes[4] = {1, 2, 3, 4};
    store.write(~0ULL - 1, bytes, 4);
    std::uint8_t low[2] = {};
    store.read(0, low, 2);
    EXPECT_EQ(low[0], 3);
    EXPECT_EQ(low[1], 4);
    std::uint8_t back[4] = {};
    store.read(~0ULL - 1, back, 4);
    EXPECT_EQ(std::memcmp(back, bytes, 4), 0);
}

TEST(SparseBytes, RandomTrafficMatchesAFlatArray)
{
    // 10k seeded reads and writes of 1..300 bytes at addresses up to
    // three capacities out, against a flat array indexed modulo the
    // capacity byte by byte (the NVM's historical semantics).
    SparseBytes store(oddCapacity);
    std::vector<std::uint8_t> flat(oddCapacity, 0);
    Rng rng(0x5ba25e);
    std::vector<std::uint8_t> buf(300);
    for (int op = 0; op < 10000; ++op) {
        const std::uint64_t addr = rng.below(3 * oddCapacity);
        const std::size_t count = rng.range(1, buf.size());
        if (rng.chance(0.5)) {
            for (std::size_t i = 0; i < count; ++i) {
                buf[i] = static_cast<std::uint8_t>(rng.next());
                flat[(addr + i) % oddCapacity] = buf[i];
            }
            store.write(addr, buf.data(), count);
        } else {
            store.read(addr, buf.data(), count);
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(buf[i], flat[(addr + i) % oddCapacity])
                    << "op " << op << " addr " << addr + i;
        }
    }
    std::vector<std::uint8_t> all(oddCapacity);
    store.read(0, all.data(), all.size());
    EXPECT_EQ(all, flat);
}

TEST(Nvm, BlockStraddlingAnUnalignedCapacityWraps)
{
    Nvm nvm(NvmType::ReRam, oddCapacity);
    Block block(32);
    for (unsigned i = 0; i < 32; ++i)
        block[i] = static_cast<std::uint8_t>(0xa0 + i);
    hier::LevelEvents ev;
    nvm.absorbBlock(oddCapacity - 8, block.span(), ev, 0);

    Block back(32);
    nvm.fetchBlock(oddCapacity - 8, back.span(), ev, 0);
    EXPECT_EQ(std::memcmp(back.data(), block.data(), 32), 0);
    std::uint8_t head[24] = {};
    nvm.readBytes(0, head, sizeof(head));
    EXPECT_EQ(std::memcmp(head, block.data() + 8, sizeof(head)), 0);
    EXPECT_EQ(ev.nvmBlockReads, 1u);
    EXPECT_EQ(ev.nvmBlockWrites, 1u);
}

/** Resident set size in bytes, or 0 where /proc is unavailable. */
std::uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t pages = 0, resident = 0;
    if (!(statm >> pages >> resident))
        return 0;
    return resident * 4096;
}

TEST(Nvm, GibibyteArrayAllocatesOnlyWhatIsWritten)
{
    const std::uint64_t before = residentBytes();
    Nvm nvm(NvmType::ReRam, 1ULL << 30);
    EXPECT_EQ(nvm.size(), 1ULL << 30);

    std::vector<std::uint8_t> out(64 * 1024, 0xff);
    for (std::uint64_t addr :
         {0ULL, 123456789ULL, (1ULL << 30) - out.size()}) {
        nvm.readBytes(addr, out.data(), out.size());
        for (std::uint8_t byte : out)
            ASSERT_EQ(byte, 0) << "near " << addr;
    }
    const std::uint8_t byte = 0x42;
    nvm.writeBytes((1ULL << 30) - 1, &byte, 1);
    std::uint8_t back = 0;
    nvm.readBytes((1ULL << 30) - 1, &back, 1);
    EXPECT_EQ(back, 0x42);

    const std::uint64_t after = residentBytes();
    if (before != 0 && after > before) {
        EXPECT_LT(after - before, 64ULL << 20)
            << "constructing/reading the array committed its capacity";
    }
}

TEST(Workload, ApplyImageWritesExactlyTheImage)
{
    // The image goes to NVM as contiguous runs; every image byte must
    // land, and the gaps between runs must stay zero.
    const Workload &wl = cachedWorkload("crc32");
    Nvm nvm(NvmType::ReRam, 16 * 1024 * 1024);
    wl.applyImage(nvm);
    Addr prev_end = 0;
    for (const auto &[addr, byte] : wl.initialImage()) {
        std::uint8_t got = 0;
        nvm.readBytes(addr, &got, 1);
        ASSERT_EQ(got, byte) << "addr " << addr;
        if (addr > prev_end) {
            std::uint8_t gap = 0xff;
            nvm.readBytes(addr - 1, &gap, 1);
            ASSERT_EQ(gap, 0) << "gap byte " << addr - 1;
        }
        prev_end = addr + 1;
    }
}

} // namespace
} // namespace kagura
