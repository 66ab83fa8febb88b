#include "runner/cache_store.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "runner/config_hash.hh"

namespace kagura
{
namespace runner
{

namespace
{

constexpr char entryMagic[4] = {'K', 'G', 'R', 'C'};
/** Version 1 entries carry fnv1a64, version 2 ones laneHash64. */
constexpr std::uint32_t entryVersion = 2;

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
getU64(std::string_view bytes, std::size_t pos)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
    return v;
}

std::uint32_t
getU32(std::string_view bytes, std::size_t pos)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
    return v;
}

/** The 8-byte little-endian word at @p p. */
std::uint64_t
loadU64(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/** Header: magic, version, key length, payload length. */
constexpr std::size_t headerBytes = 4 + 4 + 8 + 8;
constexpr std::size_t checksumBytes = 8;

/**
 * `/ab/ab0123456789cdef.kgr` and a NUL: an entry's path below the
 * store root. Its first shardNameBytes characters name the shard
 * directory.
 */
constexpr std::size_t entryNameBytes = 24;
constexpr std::size_t shardNameBytes = 3;
using EntryName = std::array<char, entryNameBytes + 1>;

EntryName
entryName(std::uint64_t hash)
{
    constexpr char hex[] = "0123456789abcdef";
    EntryName name{};
    name[0] = '/';
    for (int i = 0; i < 16; ++i)
        name[4 + i] = hex[(hash >> (60 - 4 * i)) & 0xf];
    name[1] = name[4];
    name[2] = name[5];
    name[3] = '/';
    std::memcpy(name.data() + 20, ".kgr", 5);
    return name;
}

/** @p dir followed by the first @p n characters of @p name. */
std::string
pathUnder(const std::string &dir, const EntryName &name, std::size_t n)
{
    std::string path;
    path.reserve(dir.size() + n);
    path += dir;
    path.append(name.data(), n);
    return path;
}

/**
 * One thread's read buffer: it only grows, and is never zero-filled.
 * A payload view returned by lookup() points into it.
 */
struct ReadBuffer
{
    std::unique_ptr<char[]> bytes;
    std::size_t capacity = 0;

    /** Double the buffer (at least firstReadBytes), keeping @p used. */
    void
    grow(std::size_t used)
    {
        const std::size_t size =
            std::max(CacheStore::firstReadBytes, 2 * capacity);
        auto bigger = std::make_unique_for_overwrite<char[]>(size);
        if (used)
            std::memcpy(bigger.get(), bytes.get(), used);
        bytes = std::move(bigger);
        capacity = size;
    }
};

thread_local ReadBuffer readBuffer;

/**
 * Whether @p got bytes may stop short of the entry they begin: too
 * few for a header and checksum, or fewer than the header declares.
 */
bool
mayBeShort(std::string_view got)
{
    if (got.size() < headerBytes + checksumBytes)
        return true;
    const std::uint64_t key_len = getU64(got, 8);
    const std::uint64_t payload_len = getU64(got, 16);
    const std::size_t body_len = got.size() - headerBytes - checksumBytes;
    return key_len > body_len || payload_len > body_len - key_len;
}

/**
 * Read the open file @p fd into @p buf; its length lands in @p got.
 * A file that fits the buffer takes one read(2): reading goes on only
 * while the buffer is full or the bytes so far stop short of what
 * their header declares, and ends at end of file.
 */
bool
readEntry(int fd, ReadBuffer &buf, std::size_t &got)
{
    got = 0;
    for (;;) {
        if (got == buf.capacity)
            buf.grow(got);
        const ssize_t n =
            ::read(fd, buf.bytes.get() + got, buf.capacity - got);
        if (n <= 0)
            return n == 0; // EOF: the length checks reject a short file
        got += static_cast<std::size_t>(n);
        if (got < buf.capacity &&
            !mayBeShort(std::string_view(buf.bytes.get(), got)))
            return true;
    }
}

/** Whether the directory open as @p fd has been removed. */
bool
directoryRemoved(int fd)
{
    struct stat st{};
    return ::fstat(fd, &st) != 0 || st.st_nlink == 0;
}

} // namespace

std::uint64_t
laneHash64(std::string_view bytes)
{
    // Four lanes have no data dependence on one another, so their
    // multiplies overlap in the pipeline. The rotate feeds high bits
    // back into low ones: with xor-multiply alone, flipping bit 63 of
    // two words of one lane would cancel. Every step is a bijection of
    // the lane, so any change confined to one word always changes the
    // result.
    constexpr std::uint64_t mul = 0x9e3779b97f4a7c15ULL; // odd
    std::uint64_t lane[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                             0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
    const auto *p = reinterpret_cast<const unsigned char *>(bytes.data());
    const std::size_t n = bytes.size();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32)
        for (int l = 0; l < 4; ++l)
            lane[l] = std::rotl((lane[l] ^ loadU64(p + i + 8 * l)) * mul,
                                31);
    std::uint64_t h = lane[0] + std::rotl(lane[1], 16) +
                      std::rotl(lane[2], 32) + std::rotl(lane[3], 48);
    for (; i < n; ++i)
        h = std::rotl((h ^ p[i]) * mul, 31);
    // Avalanche (the MurmurHash3 finaliser) over the length-mixed sum.
    h ^= n;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

CacheStore::CacheStore()
{
    const char *mode = std::getenv("KAGURA_CACHE");
    isEnabled = !(mode && std::string_view(mode) == "off");
    const char *env_dir = std::getenv("KAGURA_CACHE_DIR");
    dir = env_dir && env_dir[0] ? env_dir : ".kagura-cache";
}

CacheStore::CacheStore(std::string directory, bool enabled)
    : dir(std::move(directory)), isEnabled(enabled)
{
}

CacheStore &
CacheStore::global()
{
    static CacheStore instance;
    return instance;
}

CacheStore::~CacheStore()
{
    closeRoot();
}

void
CacheStore::closeRoot()
{
    if (const int fd = rootFd.exchange(-1); fd >= 0)
        ::close(fd);
    for (const int fd : retiredFds)
        ::close(fd);
    retiredFds.clear();
}

void
CacheStore::setDirectory(std::string directory)
{
    closeRoot();
    dir = std::move(directory);
}

std::string
CacheStore::entryPath(std::uint64_t hash) const
{
    return pathUnder(dir, entryName(hash), entryNameBytes);
}

bool
CacheStore::ensureShardDir(std::uint64_t hash,
                           const std::string &shard_dir)
{
    std::atomic<bool> &ready = shardReady[hash >> 56];
    if (ready.load(std::memory_order_acquire))
        return true;
    std::lock_guard<std::mutex> lock(dirMutex);
    if (!ready.load(std::memory_order_relaxed)) {
        std::error_code ec;
        std::filesystem::create_directories(shard_dir, ec);
        if (ec)
            return false;
        ready.store(true, std::memory_order_release);
    }
    return true;
}

void
CacheStore::warnOnce(const char *what, const std::string &path)
{
    std::atomic<bool> &flag =
        std::string_view(what) == "corrupt" ? warnedCorrupt : warnedIo;
    if (!flag.exchange(true))
        warn("result cache: %s entry '%s'; treating as a miss "
             "(further occurrences silenced)",
             what, path.c_str());
}

int
CacheStore::openEntry(const char *relative)
{
    int root = rootFd.load(std::memory_order_acquire);
    if (root >= 0) {
        const int fd = ::openat(root, relative, O_RDONLY | O_CLOEXEC);
        if (fd >= 0 || errno != ENOENT || !directoryRemoved(root))
            return fd;
    }
    // No root yet, or it was removed (and perhaps made again) since
    // it was opened: open it by path.
    root = reopenRoot(root);
    return root < 0 ? -1 : ::openat(root, relative, O_RDONLY | O_CLOEXEC);
}

int
CacheStore::reopenRoot(int stale)
{
    std::lock_guard<std::mutex> lock(dirMutex);
    const int current = rootFd.load(std::memory_order_relaxed);
    if (current != stale)
        return current; // another lookup reopened it
    const int fresh =
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fresh < 0)
        return -1;
    // A lookup may still be using the stale descriptor.
    if (stale >= 0)
        retiredFds.push_back(stale);
    rootFd.store(fresh, std::memory_order_release);
    return fresh;
}

bool
CacheStore::lookup(std::uint64_t hash, std::string_view key_text,
                   std::string_view &payload_out)
{
    if (!isEnabled)
        return false;
    const int fd = openEntry(entryName(hash).data() + 1);
    if (fd < 0)
        return false; // plain miss: entry does not exist
    ReadBuffer &buf = readBuffer;
    std::size_t got = 0;
    const bool read = readEntry(fd, buf, got);
    ::close(fd);
    if (!read)
        return false;
    const std::string_view blob(buf.bytes.get(), got);

    const std::uint32_t version =
        blob.size() < headerBytes ? 0 : getU32(blob, 4);
    if (blob.size() < headerBytes + checksumBytes ||
        blob.substr(0, 4) != std::string_view(entryMagic, 4) ||
        (version != 1 && version != entryVersion)) {
        warnOnce("corrupt", entryPath(hash));
        return false;
    }
    // Compared without adding the lengths, which could wrap.
    const std::uint64_t key_len = getU64(blob, 8);
    const std::uint64_t payload_len = getU64(blob, 16);
    const std::size_t body_len = blob.size() - headerBytes - checksumBytes;
    if (key_len > body_len || payload_len != body_len - key_len) {
        warnOnce("corrupt", entryPath(hash));
        return false;
    }
    const std::uint64_t stored_sum =
        getU64(blob, blob.size() - checksumBytes);
    const std::string_view body = blob.substr(0, blob.size() - checksumBytes);
    if ((version == 1 ? fnv1a64(body) : laneHash64(body)) != stored_sum) {
        warnOnce("corrupt", entryPath(hash));
        return false;
    }
    // Collision safety: the stored key must match byte for byte.
    if (blob.substr(headerBytes, key_len) != key_text)
        return false;
    payload_out = blob.substr(headerBytes + key_len, payload_len);
    return true;
}

bool
CacheStore::lookup(std::uint64_t hash, std::string_view key_text,
                   std::string &payload_out)
{
    std::string_view payload;
    if (!lookup(hash, key_text, payload))
        return false;
    payload_out.assign(payload);
    return true;
}

void
CacheStore::store(std::uint64_t hash, std::string_view key_text,
                  std::string_view payload)
{
    if (!isEnabled)
        return;
    const EntryName name = entryName(hash);
    const std::string shard_dir = pathUnder(dir, name, shardNameBytes);
    if (!ensureShardDir(hash, shard_dir)) {
        // A root that cannot be created fails every shard alike.
        warnOnce("unwritable", shard_dir);
        isEnabled = false;
        return;
    }

    std::string blob;
    blob.reserve(headerBytes + key_text.size() + payload.size() +
                 checksumBytes);
    blob.append(entryMagic, sizeof(entryMagic));
    putU32(blob, entryVersion);
    putU64(blob, key_text.size());
    putU64(blob, payload.size());
    blob += key_text;
    blob += payload;
    putU64(blob, laneHash64(blob));

    // Write-to-temp + rename keeps readers from seeing partial entries;
    // the temp sits in the entry's shard, so the rename stays within
    // one directory.
    const std::string tmp = shard_dir + "/tmp-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(tempCounter.fetch_add(1));
    const std::string path = pathUnder(dir, name, entryNameBytes);
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f && errno == ENOENT) {
        // The shard is gone since this store made it: removed, or the
        // store was re-rooted.
        shardReady[hash >> 56] = false;
        if (ensureShardDir(hash, shard_dir))
            f = std::fopen(tmp.c_str(), "wb");
    }
    if (!f) {
        warnOnce("unwritable", tmp);
        return;
    }
    const bool wrote =
        std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        warnOnce("unwritable", tmp);
        std::remove(tmp.c_str());
        return;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warnOnce("unwritable", path);
        std::remove(tmp.c_str());
    }
}

} // namespace runner
} // namespace kagura
