#include "mem/sparse_bytes.hh"

#include "common/block.hh"

namespace kagura
{

SparseBytes::SparseBytes(std::uint64_t capacity) : cap(capacity) {}

std::uint8_t *
SparseBytes::addPage(std::uint64_t page)
{
    pages.push_back(std::make_unique<std::uint8_t[]>(pageBytes));
    return table[page] = pages.back().get();
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
