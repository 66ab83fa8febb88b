#include "runner/config_hash.hh"

#include <cinttypes>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace kagura
{
namespace runner
{

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
jobKeyText(const SimConfig &config, std::string_view kind,
           std::uint64_t salt)
{
    return jobKeyText(config.canonicalKey(), kind, salt);
}

std::string
jobKeyText(std::string canonical_key, std::string_view kind,
           std::uint64_t salt)
{
    std::string key = std::move(canonical_key);
    key += "job.kind=";
    key += kind;
    key += '\n';
    key += detail::vformat("sim.version_salt=%" PRIu64 "\n", salt);
    return key;
}

std::uint64_t
jobHash(const SimConfig &config, std::string_view kind,
        std::uint64_t salt)
{
    return fnv1a64(jobKeyText(config, kind, salt));
}

} // namespace runner
} // namespace kagura
