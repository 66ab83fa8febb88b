#include "mem/sparse_bytes.hh"

#include <cstring>

namespace kagura
{

std::uint8_t *
SparseBytes::findPage(std::uint64_t page) const
{
    MemoEntry &entry = memo[page & (memoSlots - 1)];
    if (entry.page == page)
        return entry.bytes;
    const auto it = pages.find(page);
    if (it == pages.end())
        return nullptr;
    entry = {page, it->second.get()};
    return entry.bytes;
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
                       std::memcpy(dst + done, bytes + in_page, len);
                   else
                       std::memset(dst + done, 0, len);
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
                   if (!bytes) {
                       auto fresh =
                           std::make_unique<std::uint8_t[]>(pageBytes);
                       bytes = fresh.get();
                       pages.emplace(page, std::move(fresh));
                       memo[page & (memoSlots - 1)] = {page, bytes};
                   }
                   std::memcpy(bytes + in_page, src + done, len);
               });
}

} // namespace kagura
