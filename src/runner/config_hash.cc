#include "runner/config_hash.hh"

#include <array>
#include <string>
#include <utility>

namespace kagura
{
namespace runner
{

namespace
{

/** A `sim.version_salt=<salt>\n` line. */
struct SaltLine
{
    std::array<char, 40> text{};
    std::size_t size = 0;
};

constexpr SaltLine
saltLine(std::uint64_t salt)
{
    SaltLine line;
    for (const char c : std::string_view("sim.version_salt="))
        line.text[line.size++] = c;
    std::array<char, 20> digits{};
    std::size_t n = 0;
    do {
        digits[n++] = static_cast<char>('0' + salt % 10);
        salt /= 10;
    } while (salt != 0);
    while (n != 0)
        line.text[line.size++] = digits[--n];
    line.text[line.size++] = '\n';
    return line;
}

/** The salt line of this build's keys, spelled at compile time. */
constexpr SaltLine currentSaltLine = saltLine(simulatorVersionSalt);

} // namespace

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
    const SaltLine line =
        salt == simulatorVersionSalt ? currentSaltLine : saltLine(salt);
    key.append(line.text.data(), line.size);
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
