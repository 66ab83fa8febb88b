#include "trace/trace_workload.hh"

#include <cstdio>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "trace/format.hh"
#include "trace/trace_reader.hh"

namespace kagura
{
namespace trace
{

namespace
{

/**
 * Process-wide mutable state: the alias registry and the per-path
 * content-hash memo, both mutex-guarded because runner workers
 * resolve workload names concurrently.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<std::string> order;            ///< aliases, in order
    std::map<std::string, std::string> paths;  ///< alias -> file
    std::map<std::string, std::uint64_t> hashes; ///< path -> FNV-1a
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

bool
hasPrefix(const std::string &name)
{
    return name.rfind(workloadPrefix, 0) == 0;
}

bool
sourceMatches(const std::string &name)
{
    if (hasPrefix(name))
        return true;
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.paths.count(name) != 0;
}

Workload
sourceBuild(const std::string &name)
{
    return loadTraceWorkload(traceWorkloadPath(name));
}

std::vector<std::string>
sourceNames()
{
    return registeredTraceNames();
}

/**
 * Install the resolver before main(). This translation unit is
 * pulled into every simulator binary by sim_config.cc's call to
 * traceWorkloadKeyLines(), so the initialiser reliably runs.
 */
const bool installed = [] {
    ExternalWorkloadSource source;
    source.matches = &sourceMatches;
    source.build = &sourceBuild;
    source.names = &sourceNames;
    setExternalWorkloadSource(source);
    return true;
}();

} // namespace

void
registerTraceFile(const std::string &alias, const std::string &path)
{
    if (alias.empty() || hasPrefix(alias))
        fatal("bad trace alias '%s' (must be a plain name)",
              alias.c_str());
    if (workloadExists(alias))
        fatal("trace alias '%s' clashes with an existing workload",
              alias.c_str());
    // Parse the header eagerly so misregistration fails at the
    // registration site, not mid-sweep.
    readTraceInfo(path);
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.order.push_back(alias);
    reg.paths[alias] = path;
}

std::vector<std::string>
registeredTraceNames()
{
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.order;
}

bool
isTraceWorkloadName(const std::string &name)
{
    return sourceMatches(name);
}

std::string
traceWorkloadPath(const std::string &name)
{
    if (hasPrefix(name))
        return name.substr(sizeof(workloadPrefix) - 1);
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.paths.find(name);
    return it == reg.paths.end() ? std::string() : it->second;
}

std::uint64_t
traceFileHash(const std::string &path)
{
    Registry &reg = registry();
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        auto it = reg.hashes.find(path);
        if (it != reg.hashes.end())
            return it->second;
    }
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        fatal("cannot open trace file '%s' for hashing", path.c_str());
    std::uint64_t hash = fnvOffset();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0)
        hash = fnvFold(hash, buf, n);
    const bool ok = !std::ferror(file);
    std::fclose(file);
    if (!ok)
        fatal("I/O error hashing trace file '%s'", path.c_str());
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.hashes.emplace(path, hash);
    return hash;
}

std::string
traceWorkloadKeyLines(const std::string &workload)
{
    (void)installed; // anchor the static initialiser
    if (!isTraceWorkloadName(workload))
        return std::string();
    const std::string path = traceWorkloadPath(workload);
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(traceFileHash(path)));
    return std::string(traceHashKey) + '=' + hash + '\n' +
           std::string(tracePathKey) + '=' + path + '\n';
}

} // namespace trace
} // namespace kagura
