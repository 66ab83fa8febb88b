/**
 * @file
 * Schema validation for kagura.metrics/v1 JSON-lines exports and
 * kagura.bench/v1 sweep summaries. Shared by bench_diff and the
 * round-trip tests, so "the writer and the validator agree" is
 * enforced in exactly one place.
 */

#ifndef KAGURA_METRICS_VALIDATE_HH
#define KAGURA_METRICS_VALIDATE_HH

#include <string>
#include <string_view>

#include "metrics/json.hh"

namespace kagura
{
namespace metrics
{

/**
 * Validate one parsed record against the kagura.metrics/v1 schema:
 * required fields, kind vocabulary, label types, kind-specific
 * payload shape (finite scalars; histogram buckets with increasing
 * `le` edges, a final "inf" bucket, and counts summing to `count`).
 * Returns false and fills @p error on the first violation.
 */
bool validateRecord(const json::Value &record, std::string *error);

/** Parse + validate a single JSON-lines line. */
bool validateRecordLine(std::string_view line, std::string *error);

/**
 * Validate a whole JSON-lines stream (blank lines allowed). On
 * failure @p error is prefixed with the 1-based line number. When
 * @p records_out is given it receives the number of valid records.
 */
bool validateRecordStream(std::string_view text, std::string *error,
                          std::size_t *records_out = nullptr);

/**
 * Validate a parsed kagura.bench/v1 summary (kagura_bench --summary):
 * the schema tag, a string `pr`, finite non-negative run totals
 * (wall, passed/failed, sims, jobs, cache hits/lookups/rate) and a
 * `fig13_speedup_geomean` that is null or positive. Other fields --
 * the per-bench `benches` map, fields of older revisions -- are
 * optional. Returns false and fills @p error on the first violation.
 */
bool validateBenchSummary(const json::Value &doc, std::string *error);

} // namespace metrics
} // namespace kagura

#endif // KAGURA_METRICS_VALIDATE_HH
