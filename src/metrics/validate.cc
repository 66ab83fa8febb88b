#include "metrics/validate.hh"

#include <cmath>
#include <limits>

#include "metrics/sink.hh"

namespace kagura
{
namespace metrics
{

namespace
{

bool
fail(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

bool
isFiniteNumber(const json::Value *v)
{
    return v && v->isNumber() && std::isfinite(v->number);
}

bool
isCount(const json::Value *v)
{
    return isFiniteNumber(v) && v->number >= 0.0 &&
           v->number == std::floor(v->number);
}

bool
validateBuckets(const json::Value &rec, std::string *error)
{
    const json::Value *count = rec.find("count");
    if (!isCount(count))
        return fail(error, "histogram/timer needs an integral "
                           "non-negative 'count'");
    if (!isFiniteNumber(rec.find("sum")))
        return fail(error, "histogram/timer needs a finite 'sum'");
    const json::Value *buckets = rec.find("buckets");
    if (!buckets || !buckets->isArray() || buckets->array.empty())
        return fail(error,
                    "histogram/timer needs a non-empty 'buckets' array");

    double prev_le = -std::numeric_limits<double>::infinity();
    double total = 0.0;
    for (std::size_t i = 0; i < buckets->array.size(); ++i) {
        const json::Value &b = buckets->array[i];
        if (!b.isObject())
            return fail(error, "bucket entries must be objects");
        const json::Value *le = b.find("le");
        const bool last = i + 1 == buckets->array.size();
        if (last) {
            if (!le || !le->isString() || le->str != "inf")
                return fail(error,
                            "final bucket must have le:\"inf\"");
        } else {
            if (!isFiniteNumber(le) || le->number <= prev_le)
                return fail(error, "bucket 'le' edges must be finite "
                                   "and strictly increasing");
            prev_le = le->number;
        }
        const json::Value *c = b.find("count");
        if (!isCount(c))
            return fail(error, "bucket 'count' must be an integral "
                               "non-negative number");
        total += c->number;
    }
    if (total != count->number)
        return fail(error, "bucket counts must sum to 'count'");
    return true;
}

} // namespace

bool
validateRecord(const json::Value &record, std::string *error)
{
    if (!record.isObject())
        return fail(error, "record is not a JSON object");

    const json::Value *schema = record.find("schema");
    if (!schema || !schema->isString() || schema->str != schemaName)
        return fail(error, std::string("'schema' must be \"") +
                               schemaName + "\"");

    const json::Value *name = record.find("name");
    if (!name || !name->isString() || name->str.empty())
        return fail(error, "'name' must be a non-empty string");

    const json::Value *labels = record.find("labels");
    if (labels) {
        if (!labels->isObject())
            return fail(error, "'labels' must be an object");
        for (const auto &[k, v] : labels->object) {
            (void)k;
            if (!v.isString())
                return fail(error, "label values must be strings");
        }
    }

    const json::Value *kind = record.find("kind");
    if (!kind || !kind->isString())
        return fail(error, "'kind' must be a string");
    if (kind->str == "counter") {
        if (!isCount(record.find("value")))
            return fail(error, "counter 'value' must be an integral "
                               "non-negative number");
        return true;
    }
    if (kind->str == "gauge" || kind->str == "headline") {
        if (!isFiniteNumber(record.find("value")))
            return fail(error,
                        kind->str + " 'value' must be a finite number");
        return true;
    }
    if (kind->str == "histogram" || kind->str == "timer")
        return validateBuckets(record, error);
    return fail(error, "unknown 'kind' \"" + kind->str + "\"");
}

bool
validateRecordLine(std::string_view line, std::string *error)
{
    json::Value value;
    if (!json::parse(line, value, error))
        return false;
    return validateRecord(value, error);
}

bool
validateRecordStream(std::string_view text, std::string *error,
                     std::size_t *records_out)
{
    std::size_t records = 0;
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        const std::string_view line =
            text.substr(pos, eol == std::string_view::npos
                                 ? std::string_view::npos
                                 : eol - pos);
        ++line_no;
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
        if (line.find_first_not_of(" \t\r") == std::string_view::npos)
            continue; // blank line
        std::string why;
        if (!validateRecordLine(line, &why))
            return fail(error, "line " + std::to_string(line_no) +
                                   ": " + why);
        ++records;
    }
    if (records_out)
        *records_out = records;
    return true;
}

bool
validateBenchSummary(const json::Value &doc, std::string *error)
{
    if (!doc.isObject())
        return fail(error, "top-level value is not an object");
    const json::Value *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->str != "kagura.bench/v1")
        return fail(error, "schema is not \"kagura.bench/v1\"");
    for (const char *field :
         {"total_wall_seconds", "benches_passed", "benches_failed",
          "sims_run", "runner_jobs", "cache_hits", "cache_lookups",
          "cache_hit_rate"}) {
        const json::Value *v = doc.find(field);
        if (!isFiniteNumber(v) || v->number < 0.0)
            return fail(error, std::string("field '") + field +
                                   "' missing or not a finite "
                                   "non-negative number");
    }
    const json::Value *geo = doc.find("fig13_speedup_geomean");
    if (!geo ||
        (!geo->isNull() && (!geo->isNumber() || !(geo->number > 0.0))))
        return fail(error, "field 'fig13_speedup_geomean' must be null "
                           "or a positive number");
    const json::Value *pr = doc.find("pr");
    if (!pr || !pr->isString())
        return fail(error, "field 'pr' missing or not a string");
    return true;
}

} // namespace metrics
} // namespace kagura
