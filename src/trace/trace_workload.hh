/**
 * @file
 * Trace files as first-class workloads. Two spellings resolve to a
 * trace-backed workload anywhere a workload name is accepted
 * (SimConfig::workload, bench --apps, kagura_sim --app):
 *
 *   trace:<path>   -- replay the kagura.trace/v1 file at <path>
 *   <alias>        -- a name registered via registerTraceFile()
 *
 * The subsystem installs itself as the core's external workload
 * source at static initialisation (any binary linking kagura_sim
 * pulls this translation unit in through the canonical-key hook), so
 * no explicit setup call is needed.
 *
 * Cache soundness: a trace workload's behaviour lives in the file,
 * not the name, so traceWorkloadKeyLines() folds the file's content
 * hash into SimConfig::canonicalKey(). Trace files are assumed
 * immutable while a process runs (the hash and the loaded workload
 * are both memoised per path).
 */

#ifndef KAGURA_TRACE_TRACE_WORKLOAD_HH
#define KAGURA_TRACE_TRACE_WORKLOAD_HH

#include <string>
#include <string_view>
#include <vector>

#include "core/workload.hh"

namespace kagura
{
namespace trace
{

/** Prefix marking an explicit trace-file workload name. */
constexpr char workloadPrefix[] = "trace:";

/**
 * Register @p path under @p alias so the file shows up as a normal
 * workload name. The header is parsed eagerly (fatal on a malformed
 * file or an alias clashing with a kernel/registered name).
 */
void registerTraceFile(const std::string &alias,
                       const std::string &path);

/** Aliases registered via registerTraceFile(), in order. */
std::vector<std::string> registeredTraceNames();

/** True for `trace:<path>` names and registered aliases. */
bool isTraceWorkloadName(const std::string &name);

/**
 * The trace-file path behind @p name ("" when @p name is not a
 * trace workload).
 */
std::string traceWorkloadPath(const std::string &name);

/**
 * Extra canonical-key lines for @p workload: for a trace workload,
 * `workload.trace_hash=<16-hex FNV-1a of the file bytes>\n` (plus
 * the resolved path for human readers); empty for kernel names.
 * SimConfig::canonicalKey() appends this verbatim, which is what
 * keeps .kagura-cache entries sound when a trace file changes.
 */
std::string traceWorkloadKeyLines(const std::string &workload);

/** The keys of those two lines (SimConfig::parse reads them back). */
inline constexpr std::string_view traceHashKey = "workload.trace_hash";
inline constexpr std::string_view tracePathKey = "workload.trace_path";

/** Content hash of the file at @p path (memoised; fatal on I/O). */
std::uint64_t traceFileHash(const std::string &path);

} // namespace trace
} // namespace kagura

#endif // KAGURA_TRACE_TRACE_WORKLOAD_HH
