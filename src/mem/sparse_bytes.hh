/**
 * @file
 * SparseBytes: a byte-addressed store that materialises 4 KiB pages on
 * their first write. Pages never written read as zero, so a store over
 * a large address space costs memory (and set-up time) only for what a
 * workload actually touches.
 *
 * The NVM array (mem/nvm.hh) and the workload recorder's functional
 * memory (core/workload.hh) both keep their bytes here. Addresses wrap
 * modulo the capacity, reduced only when one lies outside it; copies
 * then run as page-sized memcpy chunks.
 *
 * Pages are found through one AddrMap (common/addr_map.hh) from page
 * number to bytes, so a lookup -- of a written page or of one never
 * written -- is a multiply and, almost always, one probe. Pages are
 * never freed or moved, so a page pointer stays valid for the
 * store's lifetime. Reads change nothing, so concurrent reads of one
 * store are safe; a write must not race anything.
 */

#ifndef KAGURA_MEM_SPARSE_BYTES_HH
#define KAGURA_MEM_SPARSE_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/addr_map.hh"

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
    explicit SparseBytes(std::uint64_t capacity = 0);

    SparseBytes(const SparseBytes &) = delete;
    SparseBytes &operator=(const SparseBytes &) = delete;

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
        // For capacity 0, last == 2^64 - 1: no address is reduced, and
        // the clamp below only ends a run at 2^64, where a page ends.
        const std::uint64_t last = cap - 1;
        std::uint64_t pos = addr > last ? addr % cap : addr;
        std::size_t done = 0;
        while (done < count) {
            const std::uint64_t in_page = pos & (pageBytes - 1);
            std::uint64_t len = pageBytes - in_page;
            if (len > count - done)
                len = count - done;
            if (len > last - pos)
                len = last - pos + 1;
            fn(pos >> pageShift, static_cast<std::size_t>(in_page), done,
               static_cast<std::size_t>(len));
            done += static_cast<std::size_t>(len);
            pos += len; // wraps to 0 at 2^64 on its own
            if (pos == cap)
                pos = 0;
        }
    }

    /** The materialised page @p page, or nullptr if never written. */
    std::uint8_t *
    findPage(std::uint64_t page) const
    {
        std::uint8_t *const *bytes = table.find(page);
        return bytes ? *bytes : nullptr;
    }

    /** Materialise page @p page (not present yet); returns its bytes. */
    std::uint8_t *addPage(std::uint64_t page);

    std::uint64_t cap;
    /** Every materialised page, in the order it was first written. */
    std::vector<std::unique_ptr<std::uint8_t[]>> pages;
    /** Page number to that page's bytes. */
    AddrMap<std::uint8_t *> table;
};

} // namespace kagura

#endif // KAGURA_MEM_SPARSE_BYTES_HH
