/**
 * @file
 * The fixed-size cache-block value type shared by every layer that
 * moves block payloads (NVM <-> cache <-> compressors <-> trace).
 *
 * A Block is `maxBytes` (64) bytes of inline storage plus a logical
 * size; geometries from 16 B to 64 B (the Fig. 26 sweep range) all fit
 * without heap allocation, so the simulator's hot paths -- fills,
 * writebacks, compression probes -- never touch the allocator. APIs
 * that only *look at* payload bytes take `ConstByteSpan`
 * (`std::span<const std::uint8_t>`); APIs that fill a caller-provided
 * destination take `MutByteSpan`. A `std::vector<std::uint8_t>`
 * converts to either span implicitly, so tests and tools interoperate
 * without copies.
 *
 * See docs/ARCHITECTURE.md for the block/span contracts.
 */

#ifndef KAGURA_COMMON_BLOCK_HH
#define KAGURA_COMMON_BLOCK_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/logging.hh"

namespace kagura
{

/** Read-only view of a byte payload (block contents or a payload). */
using ConstByteSpan = std::span<const std::uint8_t>;

/** Writable view of a caller-provided byte buffer. */
using MutByteSpan = std::span<std::uint8_t>;

/**
 * memcpy for the sizes the block pipeline moves: demand accesses (1, 2,
 * 4, 8 B) and blocks (16, 32, 64 B) take fixed-size copies the
 * compiler inlines as a few moves; any other size calls memcpy. A
 * runtime-sized memcpy of a few dozen bytes otherwise becomes a libc
 * call or a slow-starting `rep movs` on every fill and writeback.
 */
inline void
copyBytes(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    switch (n) {
      case 1:
        *dst = *src;
        return;
      case 2:
        std::memcpy(dst, src, 2);
        return;
      case 4:
        std::memcpy(dst, src, 4);
        return;
      case 8:
        std::memcpy(dst, src, 8);
        return;
      case 16:
        std::memcpy(dst, src, 16);
        return;
      case 32:
        std::memcpy(dst, src, 32);
        return;
      case 64:
        std::memcpy(dst, src, 64);
        return;
      default:
        std::memcpy(dst, src, n);
    }
}

/** memset(dst, 0, n) with copyBytes()'s fixed-size block cases. */
inline void
zeroBytes(std::uint8_t *dst, std::size_t n)
{
    switch (n) {
      case 16:
        std::memset(dst, 0, 16);
        return;
      case 32:
        std::memset(dst, 0, 32);
        return;
      case 64:
        std::memset(dst, 0, 64);
        return;
      default:
        std::memset(dst, 0, n);
    }
}

/** One cache block: fixed inline storage, logical size <= maxBytes. */
class Block
{
  public:
    /** Largest supported block geometry (Fig. 26 sweeps 16..64 B). */
    static constexpr std::size_t maxBytes = 64;

    /** Empty (size 0) block. */
    Block() = default;

    /** Zero-filled block of @p size bytes. */
    explicit Block(std::size_t size) : len(checked(size)) {}

    /** Block holding a copy of @p bytes. */
    explicit Block(ConstByteSpan bytes) : len(checked(bytes.size()))
    {
        if (len != 0)
            std::memcpy(storage.data(), bytes.data(), len);
    }

    /** Logical size in bytes. */
    std::size_t size() const { return len; }

    /** True when size() == 0. */
    bool empty() const { return len == 0; }

    /** Raw storage (always maxBytes long; first size() bytes valid). */
    std::uint8_t *data() { return storage.data(); }
    const std::uint8_t *data() const { return storage.data(); }

    /** View of the valid bytes. */
    ConstByteSpan span() const { return {storage.data(), len}; }
    MutByteSpan span() { return {storage.data(), len}; }

    /**
     * Resize to @p size bytes. Storage is inline, so this never
     * allocates; newly exposed bytes are zeroed.
     */
    void
    resize(std::size_t size)
    {
        const std::size_t n = checked(size);
        if (n > len)
            std::memset(storage.data() + len, 0, n - len);
        len = n;
    }

    std::uint8_t &operator[](std::size_t i) { return storage[i]; }
    const std::uint8_t &operator[](std::size_t i) const
    {
        return storage[i];
    }

    /** Value comparison over the valid bytes. */
    bool
    operator==(const Block &other) const
    {
        return len == other.len &&
               (len == 0 ||
                std::memcmp(storage.data(), other.storage.data(), len) ==
                    0);
    }

  private:
    static std::size_t
    checked(std::size_t size)
    {
        kagura_assert(size <= maxBytes);
        return size;
    }

    std::array<std::uint8_t, maxBytes> storage{};
    std::size_t len = 0;
};

} // namespace kagura

#endif // KAGURA_COMMON_BLOCK_HH
