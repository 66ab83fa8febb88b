#include "runner/cache_store.hh"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

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

/** Whole-file read, one read() into a buffer sized to the file. */
bool
readFile(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st{};
    bool ok = ::fstat(fd, &st) == 0;
    if (ok) {
        out.resize(static_cast<std::size_t>(st.st_size));
        std::size_t got = 0;
        while (got < out.size()) {
            const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
            if (n <= 0) {
                ok = n == 0; // EOF: the length checks reject a short file
                break;
            }
            got += static_cast<std::size_t>(n);
        }
        out.resize(got);
    }
    ::close(fd);
    return ok;
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

std::string
CacheStore::entryPath(std::uint64_t hash) const
{
    // Shard = the first two hex digits of the 16-digit entry name.
    return dir + detail::vformat("/%02llx/%016llx.kgr",
                                 static_cast<unsigned long long>(
                                     (hash >> 56) & 0xff),
                                 static_cast<unsigned long long>(hash));
}

bool
CacheStore::ensureShardDir(std::uint64_t hash)
{
    const std::string shard =
        dir + detail::vformat("/%02llx",
                              static_cast<unsigned long long>(
                                  (hash >> 56) & 0xff));
    std::error_code ec;
    std::filesystem::create_directories(shard, ec);
    return !ec;
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

bool
CacheStore::lookup(std::uint64_t hash, std::string_view key_text,
                   std::string &payload_out)
{
    if (!isEnabled)
        return false;
    const std::string path = entryPath(hash);
    std::string blob;
    if (!readFile(path, blob))
        return false; // plain miss: entry does not exist

    // Header: magic, version, key length, payload length.
    constexpr std::size_t header = 4 + 4 + 8 + 8;
    constexpr std::size_t checksum_bytes = 8;
    const std::uint32_t version =
        blob.size() < header ? 0 : getU32(blob, 4);
    if (blob.size() < header + checksum_bytes ||
        std::string_view(blob).substr(0, 4) !=
            std::string_view(entryMagic, 4) ||
        (version != 1 && version != entryVersion)) {
        warnOnce("corrupt", path);
        return false;
    }
    // Compared without adding the lengths, which could wrap.
    const std::uint64_t key_len = getU64(blob, 8);
    const std::uint64_t payload_len = getU64(blob, 16);
    const std::size_t body_len = blob.size() - header - checksum_bytes;
    if (key_len > body_len || payload_len != body_len - key_len) {
        warnOnce("corrupt", path);
        return false;
    }
    const std::uint64_t stored_sum =
        getU64(blob, blob.size() - checksum_bytes);
    const std::string_view body(blob.data(),
                                blob.size() - checksum_bytes);
    if ((version == 1 ? fnv1a64(body) : laneHash64(body)) != stored_sum) {
        warnOnce("corrupt", path);
        return false;
    }
    // Collision safety: the stored key must match byte for byte.
    if (std::string_view(blob).substr(header, key_len) != key_text)
        return false;
    payload_out = blob.substr(header + key_len, payload_len);
    return true;
}

void
CacheStore::store(std::uint64_t hash, std::string_view key_text,
                  std::string_view payload)
{
    if (!isEnabled)
        return;
    if (!dirReady) {
        std::lock_guard<std::mutex> lock(dirMutex);
        if (!dirReady) {
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            if (ec) {
                warnOnce("unwritable", dir);
                isEnabled = false;
                return;
            }
            dirReady = true;
        }
    }
    if (!ensureShardDir(hash)) {
        warnOnce("unwritable", entryPath(hash));
        return;
    }

    std::string blob;
    blob.reserve(24 + key_text.size() + payload.size() + 8);
    blob.append(entryMagic, sizeof(entryMagic));
    putU32(blob, entryVersion);
    putU64(blob, key_text.size());
    putU64(blob, payload.size());
    blob += key_text;
    blob += payload;
    putU64(blob, laneHash64(blob));

    // Write-to-temp + rename keeps readers from seeing partial entries.
    const std::string tmp =
        dir + detail::vformat("/tmp-%ld-%llu",
                              static_cast<long>(::getpid()),
                              static_cast<unsigned long long>(
                                  tempCounter.fetch_add(1)));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
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
    std::error_code ec;
    std::filesystem::rename(tmp, entryPath(hash), ec);
    if (ec) {
        warnOnce("unwritable", entryPath(hash));
        std::remove(tmp.c_str());
    }
}

} // namespace runner
} // namespace kagura
