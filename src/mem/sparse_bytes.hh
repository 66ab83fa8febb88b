/**
 * @file
 * SparseBytes: a byte-addressed store that materialises 4 KiB pages on
 * their first write. Pages never written read as zero, so a store over
 * a large address space costs memory (and set-up time) only for what a
 * workload actually touches.
 *
 * The NVM array (mem/nvm.hh) and the workload recorder's functional
 * memory (core/workload.hh) both keep their bytes here. Addresses wrap
 * modulo the capacity, reduced once per call; copies then run as
 * page-sized memcpy chunks.
 */

#ifndef KAGURA_MEM_SPARSE_BYTES_HH
#define KAGURA_MEM_SPARSE_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace kagura
{

/** Paged, zero-default byte store. */
class SparseBytes
{
  public:
    /** log2 of the page size. */
    static constexpr unsigned pageShift = 12;

    /** Bytes per materialised page. */
    static constexpr std::uint64_t pageBytes = 1ULL << pageShift;

    /**
     * @param capacity Size of the address space; addresses are taken
     *        modulo it. 0 selects the whole 64-bit space (addresses
     *        wrap only at 2^64).
     */
    explicit SparseBytes(std::uint64_t capacity = 0) : cap(capacity) {}

    /** Address-space size (0 = the whole 64-bit space). */
    std::uint64_t capacity() const { return cap; }

    /** Copy @p count bytes starting at @p addr into @p dst. */
    void read(std::uint64_t addr, std::uint8_t *dst,
              std::size_t count) const;

    /** Copy @p count bytes from @p src into the store at @p addr. */
    void write(std::uint64_t addr, const std::uint8_t *src,
               std::size_t count);

    /** Pages materialised so far (first writes only ever add one). */
    std::size_t pagesTouched() const { return pages.size(); }

  private:
    /**
     * Split [addr, addr+count) -- wrapped into the address space --
     * into runs that stay inside one page and below the capacity, and
     * call fn(page number, offset in page, offset in buffer, length)
     * for each in address order.
     */
    template <typename Fn>
    void
    forEachRun(std::uint64_t addr, std::size_t count, Fn &&fn) const
    {
        std::uint64_t pos = cap ? addr % cap : addr;
        std::size_t done = 0;
        while (done < count) {
            const std::uint64_t in_page = pos & (pageBytes - 1);
            std::uint64_t len = pageBytes - in_page;
            if (len > count - done)
                len = count - done;
            if (cap && len > cap - pos)
                len = cap - pos;
            fn(pos >> pageShift, static_cast<std::size_t>(in_page), done,
               static_cast<std::size_t>(len));
            done += static_cast<std::size_t>(len);
            pos += len; // wraps to 0 at 2^64 on its own
            if (pos == cap)
                pos = 0;
        }
    }

    std::uint64_t cap;
    std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
        pages;
};

} // namespace kagura

#endif // KAGURA_MEM_SPARSE_BYTES_HH
