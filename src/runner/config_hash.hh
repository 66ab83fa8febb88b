/**
 * @file
 * Stable content hashing for simulation jobs.
 *
 * The cache key is FNV-1a over the canonical textual serialization of
 * the SimConfig (SimConfig::canonicalKey()), the job kind (plain run
 * vs. either ideal-oracle variant -- the two-phase methodology is
 * cached as one job), and a simulator-version salt. Bump the salt
 * whenever a change anywhere in the simulator alters results for an
 * unchanged config; stale .kagura-cache entries then miss instead of
 * resurrecting old numbers.
 */

#ifndef KAGURA_RUNNER_CONFIG_HASH_HH
#define KAGURA_RUNNER_CONFIG_HASH_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/sim_config.hh"

namespace kagura
{
namespace runner
{

/**
 * Simulator behaviour version. Part of every cache key: bump on any
 * change that alters simulation results (kernel tweaks, energy-model
 * recalibration, power-trace generation, ...), not on pure
 * refactorings. The result-codec format carries its own version.
 *
 * 2: canonical keys grew workload.trace_hash/trace_path lines for
 *    trace-backed workloads (kagura.trace/v1 record/replay).
 * 3: integer energy -- zeptojoule capacitor and ledger, the
 *    capacitor's leakage evaluated once per trace interval, and
 *    I-cache/prefetch compactions and next-level accesses charged.
 */
constexpr std::uint64_t simulatorVersionSalt = 3;

/** 64-bit FNV-1a. */
std::uint64_t fnv1a64(std::string_view bytes);

/**
 * Full key text for one job: canonical config + job-kind tag +
 * version salt. Stored verbatim in the cache entry so a (vanishingly
 * unlikely) hash collision is detected by comparison, and so a human
 * can read back what an entry describes.
 */
std::string jobKeyText(const SimConfig &config, std::string_view kind,
                       std::uint64_t salt = simulatorVersionSalt);

/** jobKeyText() for a config whose canonicalKey() is @p canonical_key. */
std::string jobKeyText(std::string canonical_key, std::string_view kind,
                       std::uint64_t salt = simulatorVersionSalt);

/** Hash of jobKeyText (names the on-disk cache entry). */
std::uint64_t jobHash(const SimConfig &config, std::string_view kind,
                      std::uint64_t salt = simulatorVersionSalt);

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_CONFIG_HASH_HH
