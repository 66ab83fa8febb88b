/**
 * @file
 * Tag-layout kinds and their name table: the configuration
 * vocabulary shared by CacheConfig, the canonical key,
 * SimConfig::parse() and the CLIs. The layout *implementations* live
 * behind the tags::TagLayout interface (layout.hh); this header
 * depends only on common/spelling.hh so config structs can name a
 * layout without pulling in the machinery (same split as
 * repl/kind.hh).
 */

#ifndef KAGURA_TAGS_KIND_HH
#define KAGURA_TAGS_KIND_HH

#include "common/spelling.hh"

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
 * Canonical layout names, as they appear in SimConfig::canonicalKey()
 * ("dcache.tag_layout=..."). The baseline layout is *omitted* from
 * canonical keys (the committed cache fixture and goldens pin the
 * pre-subsystem key text) -- never change that rule, or these
 * spellings, without bumping simulatorVersionSalt.
 */
inline constexpr EnumName<TagLayoutKind> tagLayoutNames[] = {
    {TagLayoutKind::Baseline, "baseline"},
    {TagLayoutKind::Superblock, "superblock"},
    {TagLayoutKind::Signature, "signature"},
};

inline const char *
tagLayoutName(TagLayoutKind kind)
{
    return enumName<tagLayoutNames>(kind);
}

} // namespace tags

// Configuration surfaces use the unqualified names, mirroring
// ReplKind.
using tags::TagLayoutKind;
using tags::tagLayoutName;
using tags::tagLayoutNames;

} // namespace kagura

#endif // KAGURA_TAGS_KIND_HH
