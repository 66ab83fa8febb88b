/**
 * @file
 * Replacement-policy kinds: the configuration vocabulary shared by
 * CacheConfig, the canonical key, and SimConfig::parse(). The
 * policy *implementations* live behind the repl::ReplacementPolicy
 * interface (policy.hh); this header is dependency-free so config
 * structs can name a policy without pulling in the machinery.
 */

#ifndef KAGURA_REPL_KIND_HH
#define KAGURA_REPL_KIND_HH

#include <optional>
#include <string_view>

namespace kagura
{
namespace repl
{

/** Victim selection policy (Table I uses LRU). */
enum class ReplKind
{
    Lru,        ///< least recently used (default, Table I)
    Fifo,       ///< oldest insertion first
    Random,     ///< pseudo-random (deterministic hash of access count)
    Camp,       ///< CAMP: minimal-value eviction + size-aware insertion
    Crrip,      ///< size-bucketed RRIP (compression-aware RRIP)
    SizeOptgen, ///< offline size-aware OPTgen upper-bound oracle
    Dish,       ///< superblock-aware: lone co-residents first, then LRU
};

/**
 * Canonical policy name, as it appears in SimConfig::canonicalKey()
 * ("icache.replacement=..."). The LRU/FIFO/random spellings predate
 * src/repl and are pinned by committed cache fixtures and goldens --
 * never change them without bumping simulatorVersionSalt.
 */
const char *replacementPolicyName(ReplKind kind);

/** Inverse of replacementPolicyName (case-insensitive). */
std::optional<ReplKind> parseReplKind(std::string_view name);

/** Every kind, in canonical (enum) order, for sweeps and codecs. */
struct ReplKindList
{
    const ReplKind *data;
    std::size_t count;
    const ReplKind *begin() const { return data; }
    const ReplKind *end() const { return data + count; }
};
ReplKindList allReplKinds();

/** The online kinds (everything except the offline OPTgen oracle). */
ReplKindList onlineReplKinds();

} // namespace repl

// Configuration surfaces predate the src/repl split and use the
// unqualified names.
using repl::ReplKind;
using repl::replacementPolicyName;

} // namespace kagura

#endif // KAGURA_REPL_KIND_HH
