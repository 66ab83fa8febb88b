/**
 * @file
 * AddrMap: a flat open-addressing map from addresses (or page
 * numbers) to small values, behind Kagura's oracle log
 * (kagura/oracle.hh) and SparseBytes' page table (mem/sparse_bytes.hh):
 * a multiplicative hash picks the first probe and a linear scan the
 * rest, and the table doubles before it is half full, so a lookup --
 * hit or miss -- is a multiply and, almost always, one probe. Erase
 * shifts the rest of its probe run back, so no tombstones build up.
 *
 * The table holds no heap memory until the first insert: an empty map
 * costs a vector's three words. Iteration runs in slot order, which
 * depends on the insertion history; equality does not.
 */

#ifndef KAGURA_COMMON_ADDR_MAP_HH
#define KAGURA_COMMON_ADDR_MAP_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace kagura
{

/** Address-keyed flat hash map with value-initialised entries. */
template <typename V>
class AddrMap
{
  public:
    /** The value of @p addr, or nullptr if absent. */
    const V *
    find(Addr addr) const
    {
        if (count == 0)
            return nullptr;
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = home(addr);; i = (i + 1) & mask) {
            const Slot &slot = slots[i];
            if (!slot.used)
                return nullptr;
            if (slot.addr == addr)
                return &slot.value;
        }
    }

    V *
    find(Addr addr)
    {
        return const_cast<V *>(std::as_const(*this).find(addr));
    }

    /** The value of @p addr, inserted value-initialised if absent. */
    V &
    operator[](Addr addr)
    {
        if (V *value = find(addr))
            return *value;
        if (2 * (count + 1) > slots.size())
            grow();
        ++count;
        Slot &slot = slots[freeSlot(addr)];
        slot = Slot{addr, V{}, true};
        return slot.value;
    }

    /** Remove @p addr if present. */
    void
    erase(Addr addr)
    {
        if (count == 0)
            return;
        const std::size_t mask = slots.size() - 1;
        std::size_t hole = home(addr);
        for (;; hole = (hole + 1) & mask) {
            if (!slots[hole].used)
                return;
            if (slots[hole].addr == addr)
                break;
        }
        // Backward-shift deletion: pull every later entry of the run
        // whose home does not lie cyclically in (hole, j] into the hole.
        for (std::size_t j = (hole + 1) & mask; slots[j].used;
             j = (j + 1) & mask) {
            const std::size_t want = home(slots[j].addr);
            const bool stays = hole <= j ? hole < want && want <= j
                                         : hole < want || want <= j;
            if (stays)
                continue;
            slots[hole] = slots[j];
            hole = j;
        }
        slots[hole].used = false;
        --count;
    }

    /** Remove every entry (the table keeps its size). */
    void
    clear()
    {
        if (count == 0)
            return;
        for (Slot &slot : slots)
            slot.used = false;
        count = 0;
    }

    /** Entries held. */
    std::size_t size() const { return count; }

    /** Call @p fn(addr, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (count == 0)
            return;
        for (const Slot &slot : slots)
            if (slot.used)
                fn(slot.addr, slot.value);
    }

    /** Same entries with equal values, whatever the slot order. */
    bool
    operator==(const AddrMap &other) const
    {
        if (count != other.count)
            return false;
        bool same = true;
        forEach([&](Addr addr, const V &value) {
            const V *theirs = other.find(addr);
            same = same && theirs && *theirs == value;
        });
        return same;
    }

  private:
    struct Slot
    {
        Addr addr = 0;
        V value{};
        bool used = false;
    };

    /** The slot a probe for @p addr starts at. */
    std::size_t
    home(Addr addr) const
    {
        return static_cast<std::size_t>((addr * 0x9e3779b97f4a7c15ULL) >>
                                        shift);
    }

    /** The first unused slot of @p addr's probe run. */
    std::size_t
    freeSlot(Addr addr) const
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = home(addr);
        while (slots[i].used)
            i = (i + 1) & mask;
        return i;
    }

    /** Double the table (16 slots at first) and re-place every entry. */
    void
    grow()
    {
        std::vector<Slot> old(slots.empty() ? 16 : 2 * slots.size());
        old.swap(slots);
        shift = 64;
        for (std::size_t n = slots.size(); n > 1; n >>= 1)
            --shift;
        for (const Slot &slot : old)
            if (slot.used)
                slots[freeSlot(slot.addr)] = slot;
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
    /** 64 - log2(slots.size()): the hash keeps the top bits. */
    unsigned shift = 64;
};

} // namespace kagura

#endif // KAGURA_COMMON_ADDR_MAP_HH
