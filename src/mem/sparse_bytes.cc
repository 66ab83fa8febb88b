#include "mem/sparse_bytes.hh"

#include "common/block.hh"

namespace kagura
{

namespace
{

/** Initial page-table size (a power of two). */
constexpr std::size_t initialSlots = 16;

} // namespace

SparseBytes::SparseBytes(std::uint64_t capacity)
    : cap(capacity), table(initialSlots), tableShift(64 - 4)
{
    static_assert(initialSlots == 1u << 4, "tableShift out of sync");
}

void
SparseBytes::insert(std::uint64_t page, std::uint8_t *bytes)
{
    const std::size_t mask = table.size() - 1;
    std::size_t i = home(page);
    while (table[i].bytes != nullptr)
        i = (i + 1) & mask;
    table[i] = {page, bytes};
}

std::uint8_t *
SparseBytes::addPage(std::uint64_t page)
{
    pages.push_back(std::make_unique<std::uint8_t[]>(pageBytes));
    std::uint8_t *bytes = pages.back().get();
    if (2 * pages.size() > table.size()) {
        // Double the table and re-place every page: pages keep their
        // bytes, only their slots move.
        std::vector<Slot> old(2 * table.size());
        old.swap(table);
        --tableShift;
        for (const Slot &slot : old) {
            if (slot.bytes)
                insert(slot.page, slot.bytes);
        }
    }
    insert(page, bytes);
    return bytes;
}

void
SparseBytes::read(std::uint64_t addr, std::uint8_t *dst,
                  std::size_t count) const
{
    forEachRun(addr, count,
               [&](std::uint64_t page, std::size_t in_page,
                   std::size_t done, std::size_t len) {
                   const std::uint8_t *bytes = findPage(page);
                   if (bytes)
                       copyBytes(dst + done, bytes + in_page, len);
                   else
                       zeroBytes(dst + done, len);
               });
}

void
SparseBytes::write(std::uint64_t addr, const std::uint8_t *src,
                   std::size_t count)
{
    forEachRun(addr, count,
               [&](std::uint64_t page, std::size_t in_page,
                   std::size_t done, std::size_t len) {
                   std::uint8_t *bytes = findPage(page);
                   if (!bytes)
                       bytes = addPage(page);
                   copyBytes(bytes + in_page, src + done, len);
               });
}

} // namespace kagura
