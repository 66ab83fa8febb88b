/**
 * @file
 * Machine-readable result export: serialise a SimResult (and suite
 * comparisons) as JSON for external plotting/analysis pipelines.
 */

#ifndef KAGURA_SIM_REPORT_HH
#define KAGURA_SIM_REPORT_HH

#include <cstdio>
#include <string>

#include "sim/simulator.hh"

namespace kagura
{

/**
 * Write @p result as a single JSON object to @p out.
 *
 * Layout:
 * {
 *   "workload": "...", "wall_cycles": N, "active_cycles": N,
 *   "committed_instructions": N, "loads": N, "stores": N,
 *   "power_failures": N,
 *   "energy_pj": {"Compress": X, ..., "total": X},
 *   "icache": {"accesses": N, "misses": N, ...},
 *   "dcache": {...},
 *   "kagura": {"mode_switches": N, ...},
 *   "cycles": [{"instructions": N, "loads": N, ...}, ...]
 * }
 *
 * @param include_cycles Emit the per-power-cycle array (can be large).
 */
void writeJson(const SimResult &result, std::FILE *out,
               bool include_cycles = false);

/** As writeJson, but into a string (tests; embedding). */
std::string toJson(const SimResult &result, bool include_cycles = false);

/**
 * Bit-exact equality of two results, including every counter, every
 * per-cycle record, the zeptojoule energy buckets, and the oracle log. Implemented by comparing the canonical binary
 * encodings (runner/result_codec.hh), so "equal" here is precisely
 * "indistinguishable to the result cache" -- the property the
 * runner's determinism tests assert across worker counts.
 */
bool exactlyEqual(const SimResult &a, const SimResult &b);

} // namespace kagura

#endif // KAGURA_SIM_REPORT_HH
