/**
 * @file
 * Persistent on-disk result cache.
 *
 * One file per job under $KAGURA_CACHE_DIR (default .kagura-cache/),
 * named by the 64-bit job hash and sharded into 256 subdirectories by
 * the first two hex digits of that name (ab/abcd...ef.kgr), keeping
 * directory listings short once fleet sweeps accumulate tens of
 * thousands of entries. Only the first builds, before sharding, put
 * entries at the directory root, and their keys carry simulator salt
 * 1; every key now carries a later salt, so no lookup can name one.
 * Lookups read only the shard; `cache stats` / `cache gc` still count
 * and trim root-level files as legacy entries. Each entry stores
 * the full canonical key text alongside the payload: reads verify the
 * key byte-for-byte, so even a hash collision degrades to a miss, and
 * `cat` on an entry shows a human exactly which configuration it
 * holds. Entries are written to a temp file and renamed into place,
 * so concurrent processes sharing one cache directory never
 * observe a half-written entry; a corrupt or truncated file (killed
 * process, disk full) is treated as a miss with a single warning,
 * never an error.
 *
 * Entry format: `KGRC` magic, format version, key length, payload
 * length, key text, payload, 8-byte checksum of everything before it.
 * Version 2 entries carry laneHash64(), a word-parallel hash; version
 * 1 entries carry the byte-serial FNV-1a, which took about half of a
 * warm cache hit, and are still read. The file name stays the FNV-1a
 * of the key text (jobHash()), so existing entries keep their paths.
 *
 * KAGURA_CACHE=off disables the store entirely.
 */

#ifndef KAGURA_RUNNER_CACHE_STORE_HH
#define KAGURA_RUNNER_CACHE_STORE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace kagura
{
namespace runner
{

/**
 * The version-2 entry checksum: four lanes of xor-multiply-rotate over
 * 8-byte little-endian words, a byte tail, then a length-mixing
 * avalanche. Public so tests can pin its values; stored entries
 * depend on them.
 */
std::uint64_t laneHash64(std::string_view bytes);

/** The on-disk store; use global() unless testing. */
class CacheStore
{
  public:
    /** Configured from KAGURA_CACHE / KAGURA_CACHE_DIR. */
    CacheStore();

    /** Store rooted at @p directory (tests). */
    explicit CacheStore(std::string directory, bool enabled = true);

    /** The process-wide store used by the runner. */
    static CacheStore &global();

    bool enabled() const { return isEnabled; }
    const std::string &directory() const { return dir; }

    /** Turn the store off/on at runtime (harness --no-cache flag). */
    void setEnabled(bool on) { isEnabled = on; }

    /** Re-root the store (tests point global() at a temp dir). */
    void
    setDirectory(std::string directory)
    {
        dir = std::move(directory);
        dirReady = false;
    }

    /**
     * Fetch the payload stored under (@p hash, @p key_text). Returns
     * false on miss, disabled store, or an unreadable/corrupt/
     * mismatched entry.
     */
    bool lookup(std::uint64_t hash, std::string_view key_text,
                std::string &payload_out);

    /** Persist @p payload under (@p hash, @p key_text); best-effort. */
    void store(std::uint64_t hash, std::string_view key_text,
               std::string_view payload);

    /** Sharded entry path for @p hash (tests poke at files directly). */
    std::string entryPath(std::uint64_t hash) const;

  private:
    void warnOnce(const char *what, const std::string &path);

    /** Best-effort create of the shard directory for @p hash. */
    bool ensureShardDir(std::uint64_t hash);

    std::string dir;
    std::atomic<bool> isEnabled;
    /** Directory known to exist (created lazily on first store). */
    std::atomic<bool> dirReady{false};
    std::mutex dirMutex;
    std::atomic<bool> warnedCorrupt{false};
    std::atomic<bool> warnedIo{false};
    /** Distinguishes temp files of concurrent writers. */
    std::atomic<std::uint64_t> tempCounter{0};
};

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_CACHE_STORE_HH
