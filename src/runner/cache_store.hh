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
 * A lookup reads its entry with one read(2) into a buffer its thread
 * keeps and only grows, and checks it there; the payload it returns
 * is a view of that buffer. Writers create each shard directory once
 * per store and write the temp file inside the shard, so the rename
 * never leaves one directory.
 *
 * KAGURA_CACHE=off disables the store entirely.
 */

#ifndef KAGURA_RUNNER_CACHE_STORE_HH
#define KAGURA_RUNNER_CACHE_STORE_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

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

    ~CacheStore();
    CacheStore(const CacheStore &) = delete;
    CacheStore &operator=(const CacheStore &) = delete;

    /** The process-wide store used by the runner. */
    static CacheStore &global();

    bool enabled() const { return isEnabled; }
    const std::string &directory() const { return dir; }

    /** Turn the store off/on at runtime (harness --no-cache flag). */
    void setEnabled(bool on) { isEnabled = on; }

    /**
     * Re-root the store (tests point global() at a temp dir). Not
     * while a lookup or store is in flight.
     */
    void setDirectory(std::string directory);

    /** First size of a thread's read buffer; larger entries grow it. */
    static constexpr std::size_t firstReadBytes = 64 * 1024;

    /**
     * Fetch the payload stored under (@p hash, @p key_text). Returns
     * false on miss, disabled store, or an unreadable/corrupt/
     * mismatched entry. On a hit @p payload_out views this thread's
     * read buffer, valid until the thread's next lookup in any store.
     */
    bool lookup(std::uint64_t hash, std::string_view key_text,
                std::string_view &payload_out);

    /** lookup() into a copy of the payload. */
    bool lookup(std::uint64_t hash, std::string_view key_text,
                std::string &payload_out);

    /** Persist @p payload under (@p hash, @p key_text); best-effort. */
    void store(std::uint64_t hash, std::string_view key_text,
               std::string_view payload);

    /** Sharded entry path for @p hash (tests poke at files directly). */
    std::string entryPath(std::uint64_t hash) const;

  private:
    void warnOnce(const char *what, const std::string &path);

    /**
     * Open the entry at @p relative (`ab/<name>.kgr`) below the root;
     * -1 if it cannot be opened.
     */
    int openEntry(const char *relative);

    /** Open the root anew unless rootFd is no longer @p stale. */
    int reopenRoot(int stale);

    void closeRoot();

    /**
     * Create @p shard_dir, the shard of @p hash, unless this store
     * already has; false if it cannot be created.
     */
    bool ensureShardDir(std::uint64_t hash, const std::string &shard_dir);

    std::string dir;
    std::atomic<bool> isEnabled;
    /** Shard directories this store has made, by shard index. */
    std::array<std::atomic<bool>, 256> shardReady{};
    /** Serialises making a shard and replacing rootFd. */
    std::mutex dirMutex;
    /**
     * The root directory, opened by the first lookup that finds it.
     * Lookups open entries relative to it, which skips walking the
     * root's path: about half the cost of an open(). -1 until then.
     */
    std::atomic<int> rootFd{-1};
    /** Descriptors of roots removed while in use; closed with the store. */
    std::vector<int> retiredFds;
    std::atomic<bool> warnedCorrupt{false};
    std::atomic<bool> warnedIo{false};
    /** Distinguishes temp files of concurrent writers. */
    std::atomic<std::uint64_t> tempCounter{0};
};

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_CACHE_STORE_HH
