/**
 * @file
 * Tag-layout kinds: the configuration vocabulary shared by
 * CacheConfig, the canonical key, and SimConfig::parse(). The
 * layout *implementations* live behind the tags::TagLayout interface
 * (layout.hh); this header is dependency-free so config structs can
 * name a layout without pulling in the machinery (same split as
 * repl/kind.hh).
 */

#ifndef KAGURA_TAGS_KIND_HH
#define KAGURA_TAGS_KIND_HH

#include <optional>
#include <string_view>

namespace kagura
{
namespace tags
{

/**
 * Per-set compressed-tag architecture (the paper's free-tags
 * idealization is TagLayoutKind::Baseline).
 */
enum class TagLayoutKind
{
    /// One full tag per line slot, 2x ways slots (the pre-subsystem
    /// scheme, re-implemented bit-identically).
    Baseline,
    /// DISH-style superblock entries: one tag per 4-block superblock
    /// with per-block validity/size fields, compaction on fill.
    Superblock,
    /// Touche-style short signatures with a full-tag re-check path
    /// and false-positive accounting.
    Signature,
};

/**
 * Canonical layout name, as it appears in SimConfig::canonicalKey()
 * ("dcache.tag_layout=..."). The baseline layout is *omitted* from
 * canonical keys (the committed cache fixture and goldens pin the
 * pre-subsystem key text) -- never change that rule, or these
 * spellings, without bumping simulatorVersionSalt.
 */
const char *tagLayoutName(TagLayoutKind kind);

/** Inverse of tagLayoutName (case-insensitive). */
std::optional<TagLayoutKind> parseTagLayoutKind(std::string_view name);

/** Every kind, in canonical (enum) order, for sweeps and codecs. */
struct TagLayoutKindList
{
    const TagLayoutKind *data;
    std::size_t count;
    const TagLayoutKind *begin() const { return data; }
    const TagLayoutKind *end() const { return data + count; }
};
TagLayoutKindList allTagLayoutKinds();

} // namespace tags

// Configuration surfaces use the unqualified names, mirroring
// ReplKind.
using tags::TagLayoutKind;
using tags::tagLayoutName;

} // namespace kagura

#endif // KAGURA_TAGS_KIND_HH
