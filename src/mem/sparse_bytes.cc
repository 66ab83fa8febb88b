#include "mem/sparse_bytes.hh"

#include <cstring>

namespace kagura
{

void
SparseBytes::read(std::uint64_t addr, std::uint8_t *dst,
                  std::size_t count) const
{
    forEachRun(addr, count,
               [&](std::uint64_t page, std::size_t in_page,
                   std::size_t done, std::size_t len) {
                   const auto it = pages.find(page);
                   if (it == pages.end())
                       std::memset(dst + done, 0, len);
                   else
                       std::memcpy(dst + done, it->second.get() + in_page,
                                   len);
               });
}

void
SparseBytes::write(std::uint64_t addr, const std::uint8_t *src,
                   std::size_t count)
{
    forEachRun(addr, count,
               [&](std::uint64_t page, std::size_t in_page,
                   std::size_t done, std::size_t len) {
                   std::unique_ptr<std::uint8_t[]> &slot = pages[page];
                   if (!slot)
                       slot = std::make_unique<std::uint8_t[]>(pageBytes);
                   std::memcpy(slot.get() + in_page, src + done, len);
               });
}

} // namespace kagura
