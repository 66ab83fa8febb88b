/**
 * @file
 * Replacement-policy kinds and their name table: the configuration
 * vocabulary shared by CacheConfig, the canonical key,
 * SimConfig::parse() and the CLIs. The policy *implementations* live
 * behind the repl::ReplacementPolicy interface (policy.hh); this
 * header depends only on common/spelling.hh so config structs can
 * name a policy without pulling in the machinery.
 */

#ifndef KAGURA_REPL_KIND_HH
#define KAGURA_REPL_KIND_HH

#include "common/spelling.hh"

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
 * Canonical policy names, as they appear in SimConfig::canonicalKey()
 * ("icache.replacement=..."). The LRU/FIFO/random spellings predate
 * src/repl and are pinned by committed cache fixtures and goldens --
 * never change them without bumping simulatorVersionSalt.
 */
inline constexpr EnumName<ReplKind> replKindNames[] = {
    {ReplKind::Lru, "LRU"},
    {ReplKind::Fifo, "FIFO"},
    {ReplKind::Random, "random"},
    {ReplKind::Camp, "CAMP"},
    {ReplKind::Crrip, "CRRIP"},
    {ReplKind::SizeOptgen, "size-optgen"},
    {ReplKind::Dish, "dish"},
};

inline const char *
replacementPolicyName(ReplKind kind)
{
    return enumName<replKindNames>(kind);
}

/** The online kinds (everything except the offline OPTgen oracle). */
inline constexpr ReplKind onlineReplKinds[] = {
    ReplKind::Lru,  ReplKind::Fifo,  ReplKind::Random,
    ReplKind::Camp, ReplKind::Crrip, ReplKind::Dish,
};

} // namespace repl

// Configuration surfaces predate the src/repl split and use the
// unqualified names.
using repl::ReplKind;
using repl::replacementPolicyName;
using repl::replKindNames;

} // namespace kagura

#endif // KAGURA_REPL_KIND_HH
