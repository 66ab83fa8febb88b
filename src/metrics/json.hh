/**
 * @file
 * A minimal recursive-descent JSON parser, just big enough to read
 * back what the metrics sinks emit (objects, arrays, strings with
 * escapes, numbers, booleans, null), plus the two scalar writers the
 * sinks and the bench summary share. Used by the schema validators,
 * bench_diff and the round-trip tests -- no external JSON dependency.
 */

#ifndef KAGURA_METRICS_JSON_HH
#define KAGURA_METRICS_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kagura
{
namespace metrics
{
namespace json
{

/** A parsed JSON value (tagged union, heap-free for scalars). */
struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    /** Insertion-ordered key/value pairs. */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(std::string_view key) const;
};

/**
 * Parse exactly one JSON document from @p text (trailing whitespace
 * allowed, trailing garbage rejected). Returns false and fills
 * @p error (when given) on malformed input.
 */
bool parse(std::string_view text, Value &out,
           std::string *error = nullptr);

/** @p text escaped for a JSON string (quotes, backslash, controls). */
std::string escape(std::string_view text);

/**
 * Round-trip-exact JSON number. Counters are integral doubles and
 * print without an exponent; NaN/inf (never produced by instruments,
 * but defend anyway) degrade to 0 since JSON has no spelling for them.
 */
std::string number(double v);

} // namespace json
} // namespace metrics
} // namespace kagura

#endif // KAGURA_METRICS_JSON_HH
