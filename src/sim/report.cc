#include "sim/report.hh"

#include <cinttypes>
#include <cstdarg>

#include "metrics/json.hh"
#include "runner/result_codec.hh"

namespace kagura
{

namespace
{

/** Append printf-formatted numbers (a %.3f double fits 1 KiB). */
void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[1024];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

/**
 * Append field-listed @p stats (common/fields.hh) as a JSON object:
 * counters as integers, derived rows to six places.
 */
template <typename T>
void
appendFields(std::string &out, const T &stats)
{
    char sep = '{';
    forEachRow<T>([&](const auto &row) {
        out += sep;
        sep = ',';
        out += '"';
        out += row.name;
        out += "\":";
        if constexpr (isStored<decltype(row)>)
            appendf(out, "%" PRIu64, stats.*row.member);
        else
            appendf(out, "%.6f", (stats.*row.value)());
    });
    out += '}';
}

} // namespace

std::string
toJson(const SimResult &r, bool include_cycles)
{
    std::string out;
    out.reserve(2048);
    out += "{\"workload\":\"";
    out += metrics::json::escape(r.workload);
    out += "\",";
    appendf(out, "\"wall_cycles\":%" PRIu64 ",", r.wallCycles);
    appendf(out, "\"active_cycles\":%" PRIu64 ",", r.activeCycles);
    appendf(out, "\"committed_instructions\":%" PRIu64 ",",
            r.committedInstructions);
    appendf(out, "\"loads\":%" PRIu64 ",", r.loads);
    appendf(out, "\"stores\":%" PRIu64 ",", r.stores);
    appendf(out, "\"power_failures\":%" PRIu64 ",", r.powerFailures);
    appendf(out, "\"instructions_per_cycle\":%.3f,",
            r.instructionsPerCycle());

    out += "\"energy_pj\":{";
    for (std::size_t c = 0; c < EnergyLedger::numCategories; ++c) {
        const auto cat = static_cast<EnergyCategory>(c);
        appendf(out, "\"%s\":%.3f,", energyCategoryName(cat),
                r.ledger.total(cat));
    }
    appendf(out, "\"total\":%.3f},", r.ledger.grandTotal());

    out += "\"icache\":";
    appendFields(out, r.icache);
    out += ",\"dcache\":";
    appendFields(out, r.dcache);
    out += ",\"kagura\":";
    appendFields(out, r.kagura);
    appendf(out, ",\"oracle_vetoes\":%" PRIu64, r.oracleVetoes);

    if (include_cycles) {
        out += ",\"cycles\":[";
        for (std::size_t i = 0; i < r.cycles.size(); ++i) {
            if (i)
                out += ',';
            appendFields(out, r.cycles[i]);
        }
        out += "]";
    }
    out += "}";
    return out;
}

void
writeJson(const SimResult &result, std::FILE *out, bool include_cycles)
{
    const std::string json = toJson(result, include_cycles);
    std::fwrite(json.data(), 1, json.size(), out);
    std::fputc('\n', out);
}

bool
exactlyEqual(const SimResult &a, const SimResult &b)
{
    return runner::encodeResult(a) == runner::encodeResult(b);
}

} // namespace kagura
