#include "runner/cache_maint.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <vector>

namespace kagura
{
namespace runner
{

namespace fs = std::filesystem;

namespace
{

/** One cache entry as the scanner sees it. */
struct EntryInfo
{
    fs::path path;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
    bool legacy = false;
    int shard = -1; // 0..255; -1 for legacy flat entries
};

bool
isHexDigits(std::string_view s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex)
            return false;
    }
    return true;
}

/** "ab" -> 0xab; -1 if not a two-digit shard name. */
int
shardIndex(const std::string &name)
{
    if (name.size() != 2 || !isHexDigits(name))
        return -1;
    int v = 0;
    for (char c : name)
        v = v * 16 + (c <= '9' ? c - '0' : c - 'a' + 10);
    return v;
}

bool
isEntryName(const std::string &name)
{
    // 16 hex digits + ".kgr"
    constexpr std::string_view suffix = ".kgr";
    if (name.size() != 16 + suffix.size())
        return false;
    if (std::string_view(name).substr(16) != suffix)
        return false;
    return isHexDigits(std::string_view(name).substr(0, 16));
}

bool
isTempName(const std::string &name)
{
    return std::string_view(name).substr(0, 4) == "tmp-";
}

/**
 * Walk the store, collecting entries, temp files, and bookkeeping
 * counts. Every filesystem call is best-effort: a file deleted by a
 * concurrent gc or renamed by a concurrent writer mid-scan is simply
 * skipped.
 */
void
scan(const std::string &dir, std::vector<EntryInfo> &entries,
     std::vector<EntryInfo> &temps, CacheStatsReport &report)
{
    std::error_code ec;
    fs::directory_iterator top(dir, ec);
    if (ec)
        return;
    const auto note = [&](const fs::directory_entry &ent, int shard,
                          bool legacy) {
        const std::string name = ent.path().filename().string();
        std::error_code fec;
        if (isTempName(name)) {
            EntryInfo info;
            info.path = ent.path();
            info.bytes = ent.file_size(fec);
            if (fec)
                info.bytes = 0;
            info.mtime = ent.last_write_time(fec);
            temps.push_back(std::move(info));
            return;
        }
        if (!isEntryName(name))
            return;
        EntryInfo info;
        info.path = ent.path();
        info.bytes = ent.file_size(fec);
        if (fec)
            return; // vanished mid-scan
        info.mtime = ent.last_write_time(fec);
        if (fec)
            return;
        info.legacy = legacy;
        info.shard = shard;
        entries.push_back(std::move(info));
    };

    for (const auto &ent : top) {
        std::error_code fec;
        if (ent.is_directory(fec)) {
            // Only two-hex-digit shard directories belong to the
            // store; anything else (e.g. an old manifests/ tree) is
            // neither counted nor collected.
            const int shard = shardIndex(ent.path().filename().string());
            if (shard < 0)
                continue;
            ++report.shards;
            std::error_code sec;
            for (const auto &sub :
                 fs::directory_iterator(ent.path(), sec))
                note(sub, shard, false);
            continue;
        }
        note(ent, -1, true);
    }
}

std::uint64_t
fileAgeSeconds(const fs::file_time_type &mtime)
{
    const auto now = fs::file_time_type::clock::now();
    if (mtime >= now)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(now - mtime)
            .count());
}

} // namespace

double
CacheStatsReport::skew() const
{
    const std::uint64_t sharded = entries - legacyEntries;
    if (shards == 0 || sharded == 0)
        return 0.0;
    const double mean = static_cast<double>(sharded) / shards;
    return static_cast<double>(maxShardEntries) / mean;
}

CacheStatsReport
cacheStats(const CacheStore &store)
{
    CacheStatsReport report;
    std::vector<EntryInfo> entries, temps;
    scan(store.directory(), entries, temps, report);

    std::uint64_t perShard[256] = {};
    for (const EntryInfo &e : entries) {
        ++report.entries;
        report.totalBytes += e.bytes;
        if (e.legacy)
            ++report.legacyEntries;
        else
            ++perShard[e.shard];
    }
    report.tempFiles = temps.size();
    if (report.shards > 0) {
        report.minShardEntries = ~0ull;
        // Only shards that exist count toward the skew; absent shards
        // mean the hash space simply has not been touched there yet.
        for (int s = 0; s < 256; ++s) {
            // perShard is only nonzero for present shards, but an
            // empty-but-present shard should still drag the minimum
            // down; we cannot tell those apart from here, so track the
            // minimum over nonzero shards and clamp below.
            if (perShard[s] > 0) {
                report.minShardEntries =
                    std::min(report.minShardEntries, perShard[s]);
                report.maxShardEntries =
                    std::max(report.maxShardEntries, perShard[s]);
            }
        }
        if (report.minShardEntries == ~0ull)
            report.minShardEntries = 0;
    }
    return report;
}

GcReport
cacheGc(const CacheStore &store, const GcOptions &options)
{
    GcReport report;
    CacheStatsReport stats;
    std::vector<EntryInfo> entries, temps;
    scan(store.directory(), entries, temps, stats);
    report.scanned = entries.size();

    // Stale temp files are debris from killed writers; anything older
    // than an hour can never be renamed into place anymore. Fresh ones
    // belong to live writers and must be left alone.
    constexpr std::uint64_t tempGraceSeconds = 3600;
    for (const EntryInfo &t : temps) {
        if (fileAgeSeconds(t.mtime) < tempGraceSeconds)
            continue;
        std::error_code ec;
        if (fs::remove(t.path, ec) && !ec)
            ++report.tempFilesRemoved;
    }

    std::uint64_t totalBytes = 0;
    for (const EntryInfo &e : entries)
        totalBytes += e.bytes;

    // Oldest first, so both policies trim from the cold end.
    std::sort(entries.begin(), entries.end(),
              [](const EntryInfo &a, const EntryInfo &b) {
                  return a.mtime < b.mtime;
              });

    const auto drop = [&](const EntryInfo &e) {
        // Plain unlink: a concurrent writer re-publishing this hash
        // via rename() either lands before (we delete the new entry,
        // costing one redundant re-simulation later) or after (the
        // rename recreates the name). Neither order can corrupt.
        std::error_code ec;
        if (!fs::remove(e.path, ec) || ec)
            return false;
        ++report.deleted;
        report.deletedBytes += e.bytes;
        totalBytes -= e.bytes;
        return true;
    };

    std::vector<char> dropped(entries.size(), 0);
    if (options.maxAgeSeconds > 0) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (fileAgeSeconds(entries[i].mtime) <= options.maxAgeSeconds)
                break; // sorted: everything after is younger
            if (drop(entries[i]))
                dropped[i] = 1;
        }
    }
    if (options.maxBytes > 0) {
        for (std::size_t i = 0;
             i < entries.size() && totalBytes > options.maxBytes; ++i) {
            if (dropped[i])
                continue;
            if (drop(entries[i]))
                dropped[i] = 1;
        }
    }

    report.remainingEntries = report.scanned - report.deleted;
    report.remainingBytes = totalBytes;
    return report;
}

} // namespace runner
} // namespace kagura
