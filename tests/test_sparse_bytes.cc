/**
 * @file
 * Tests for the paged byte store behind the NVM array and the
 * workload recorder: zero-default reads, wrap-around at a capacity
 * that is not page- or block-aligned, pages that share a memo slot,
 * equivalence with a flat array under seeded random traffic, and lazy
 * allocation of a large NVM.
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
    // capacity byte by byte (the NVM's historical semantics). The
    // second capacity spans more pages than the memo has slots.
    for (const std::uint64_t capacity :
         {oddCapacity,
          5 * SparseBytes::memoSlots * SparseBytes::pageBytes + 1000}) {
        SparseBytes store(capacity);
        std::vector<std::uint8_t> flat(capacity, 0);
        Rng rng(0x5ba25e);
        std::vector<std::uint8_t> buf(300);
        for (int op = 0; op < 10000; ++op) {
            const std::uint64_t addr = rng.below(3 * capacity);
            const std::size_t count = rng.range(1, buf.size());
            if (rng.chance(0.5)) {
                for (std::size_t i = 0; i < count; ++i) {
                    buf[i] = static_cast<std::uint8_t>(rng.next());
                    flat[(addr + i) % capacity] = buf[i];
                }
                store.write(addr, buf.data(), count);
            } else {
                store.read(addr, buf.data(), count);
                for (std::size_t i = 0; i < count; ++i)
                    ASSERT_EQ(buf[i], flat[(addr + i) % capacity])
                        << "capacity " << capacity << " op " << op
                        << " addr " << addr + i;
            }
        }
        std::vector<std::uint8_t> all(capacity);
        store.read(0, all.data(), all.size());
        EXPECT_EQ(all, flat) << "capacity " << capacity;
    }
}

/** Byte address of offset @p offset in page @p page. */
constexpr std::uint64_t
pageAddr(std::uint64_t page, std::uint64_t offset = 0)
{
    return page * SparseBytes::pageBytes + offset;
}

TEST(SparseBytes, PagesSharingAMemoSlotKeepTheirOwnBytes)
{
    // Pages 3, 3 + slots and 3 + 2 * slots all map to memo slot 3.
    constexpr std::uint64_t slots = SparseBytes::memoSlots;
    SparseBytes store(pageAddr(4 * slots));
    const std::uint64_t pages[] = {3, 3 + slots, 3 + 2 * slots};
    for (std::uint8_t i = 0; i < 3; ++i) {
        const std::uint8_t byte = 0x10 + i;
        store.write(pageAddr(pages[i], 7), &byte, 1);
    }
    EXPECT_EQ(store.pagesTouched(), 3u);
    // Alternate between the colliders so every read evicts the memo.
    for (int round = 0; round < 3; ++round) {
        for (std::uint8_t i = 0; i < 3; ++i) {
            std::uint8_t got[2] = {0xff, 0xff};
            store.read(pageAddr(pages[i], 7), got, 2);
            EXPECT_EQ(got[0], 0x10 + i) << "page " << pages[i];
            EXPECT_EQ(got[1], 0) << "page " << pages[i];
        }
    }
}

TEST(SparseBytes, UnwrittenPageReadsZeroAfterAColliderWasWritten)
{
    constexpr std::uint64_t slots = SparseBytes::memoSlots;
    SparseBytes store(pageAddr(4 * slots));
    std::vector<std::uint8_t> ones(SparseBytes::pageBytes, 0x11);
    store.write(pageAddr(5), ones.data(), ones.size());

    // Page 5 + slots was never written; the memo slot holds page 5.
    std::vector<std::uint8_t> out(SparseBytes::pageBytes, 0xff);
    store.read(pageAddr(5 + slots), out.data(), out.size());
    for (std::uint8_t byte : out)
        ASSERT_EQ(byte, 0);
    EXPECT_EQ(store.pagesTouched(), 1u);

    // Page 5 still reads back, and a write to the collider lands in
    // its own page.
    store.read(pageAddr(5), out.data(), out.size());
    EXPECT_EQ(out, ones);
    const std::uint8_t byte = 0x22;
    store.write(pageAddr(5 + slots, 1), &byte, 1);
    store.read(pageAddr(5, 1), out.data(), 1);
    EXPECT_EQ(out[0], 0x11);
    store.read(pageAddr(5 + slots, 1), out.data(), 1);
    EXPECT_EQ(out[0], 0x22);
    EXPECT_EQ(store.pagesTouched(), 2u);
}

TEST(SparseBytes, RunsCrossPageBoundariesAndTheCapacityEnd)
{
    // Capacity ends 1000 bytes into page 2 * slots + 1; a 3-page
    // buffer starting 100 bytes below page 2 * slots crosses two page
    // boundaries and then wraps into pages 0 and 1, which share memo
    // slots with pages slots and slots + 1.
    constexpr std::uint64_t slots = SparseBytes::memoSlots;
    const std::uint64_t capacity = pageAddr(2 * slots + 1, 1000);
    SparseBytes store(capacity);
    std::vector<std::uint8_t> flat(capacity, 0);
    std::vector<std::uint8_t> buf(3 * SparseBytes::pageBytes);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const std::uint64_t start = pageAddr(2 * slots) - 100;
    store.write(start, buf.data(), buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i)
        flat[(start + i) % capacity] = buf[i];
    const std::uint8_t other = 0x33;
    store.write(pageAddr(slots), &other, 1);
    flat[pageAddr(slots)] = other;

    std::vector<std::uint8_t> back(buf.size());
    store.read(start, back.data(), back.size());
    EXPECT_EQ(back, buf);
    std::vector<std::uint8_t> all(capacity);
    store.read(0, all.data(), all.size());
    EXPECT_EQ(all, flat);
}

TEST(SparseBytes, UnalignedCapacityReducesOnlyOutOfRangeAddresses)
{
    // Addresses below the capacity take the path with no division;
    // the ones at or past it (up to 2^64 - 1) must alias the same
    // bytes as their remainder.
    SparseBytes store(oddCapacity);
    std::vector<std::uint8_t> flat(oddCapacity, 0);
    Rng rng(0xa11a5);
    for (std::uint64_t i = 0; i < oddCapacity; i += 97) {
        const auto byte = static_cast<std::uint8_t>(rng.next() | 1);
        store.write(i, &byte, 1);
        flat[i] = byte;
    }
    const std::uint64_t probes[] = {0,
                                    oddCapacity - 1,
                                    oddCapacity,
                                    oddCapacity + 1,
                                    2 * oddCapacity - 1,
                                    7 * oddCapacity + 12345,
                                    ~0ULL - 300,
                                    ~0ULL};
    for (const std::uint64_t addr : probes) {
        std::uint8_t got[300] = {};
        store.read(addr, got, sizeof(got));
        for (std::size_t i = 0; i < sizeof(got); ++i) {
            // (addr + i) mod capacity without overflowing 2^64.
            const std::uint64_t at =
                (addr % oddCapacity + i) % oddCapacity;
            ASSERT_EQ(got[i], flat[at]) << "addr " << addr << " + " << i;
        }
    }
}

TEST(SparseBytes, UnboundedSpaceMemoKeepsPagesAcrossTheTop)
{
    // Capacity 0: the last page below 2^64 and page slots - 1 share a
    // memo slot, and a run crossing 2^64 touches both plus page 0.
    constexpr std::uint64_t slots = SparseBytes::memoSlots;
    SparseBytes store;
    std::uint8_t bytes[64];
    for (unsigned i = 0; i < 64; ++i)
        bytes[i] = static_cast<std::uint8_t>(0x80 + i);
    store.write(~0ULL - 31, bytes, sizeof(bytes));
    const std::uint8_t mark = 0x44;
    store.write(pageAddr(slots - 1), &mark, 1);
    EXPECT_EQ(store.pagesTouched(), 3u);

    std::uint8_t back[64] = {};
    store.read(~0ULL - 31, back, sizeof(back));
    EXPECT_EQ(std::memcmp(back, bytes, sizeof(bytes)), 0);
    std::uint8_t got = 0;
    store.read(pageAddr(slots - 1), &got, 1);
    EXPECT_EQ(got, 0x44);
    store.read(31, &got, 1);
    EXPECT_EQ(got, 0x80 + 63);
    store.read(pageAddr(slots - 1, 1), &got, 1);
    EXPECT_EQ(got, 0);
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
