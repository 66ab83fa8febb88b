/**
 * @file
 * How configuration values are spelled in text. Each config enum has
 * one constexpr name table, declared next to the enum in enum order;
 * the name lookup, its case-insensitive inverse, value iteration and
 * help-text lists are all derived from that table here. parseNumber()
 * is the whole-string number reader; parseIntegerLiteral() adds the
 * 0x/0 base prefixes. The canonical key
 * (SimConfig::canonicalKey / parse) and both CLIs spell values only
 * through these, so every name is declared exactly once.
 */

#ifndef KAGURA_COMMON_SPELLING_HH
#define KAGURA_COMMON_SPELLING_HH

#include <cctype>
#include <charconv>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"

namespace kagura
{

/**
 * One enum value's spellings. The name is canonical: canonical keys,
 * reports and help text print it, and changing it orphans every
 * cached result. The optional alias is an extra CLI spelling kept
 * for compatibility (a canonical key spelled with it fails the
 * round-trip law, so keys stay canonical). An entry converts to its
 * value, so `for (EhsKind kind : ehsKindNames)` visits every value.
 */
template <typename Enum>
struct EnumName
{
    Enum value;
    const char *name;
    const char *alias = nullptr;

    constexpr operator Enum() const { return value; }
};

/** ASCII case-insensitive equality (config and CLI spellings). */
inline bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

/** True when @p table lists the enum values 0, 1, 2, ... in order. */
template <typename Enum, std::size_t N>
constexpr bool
inEnumOrder(const EnumName<Enum> (&table)[N])
{
    for (std::size_t i = 0; i < N; ++i) {
        if (static_cast<std::size_t>(table[i].value) != i)
            return false;
    }
    return true;
}

/** Canonical name of @p value in @p table; panics on a value it lacks. */
template <const auto &table>
const char *
enumName(decltype(table[0].value) value)
{
    static_assert(inEnumOrder(table), "name table must follow enum order");
    const auto index = static_cast<std::size_t>(value);
    if (index >= std::size(table))
        panic("enum value %zu has no name", index);
    return table[index].name;
}

/** The value spelled @p text (name or alias, any case), if any. */
template <typename Enum, std::size_t N>
constexpr std::optional<Enum>
enumFromName(const EnumName<Enum> (&table)[N], std::string_view text)
{
    for (const EnumName<Enum> &entry : table) {
        if (iequals(text, entry.name) ||
            (entry.alias && iequals(text, entry.alias)))
            return entry.value;
    }
    return std::nullopt;
}

/** The canonical names joined by @p separator (help text). */
template <typename Enum, std::size_t N>
std::string
enumNameList(const EnumName<Enum> (&table)[N], std::string_view separator)
{
    std::string out;
    for (const EnumName<Enum> &entry : table) {
        if (!out.empty())
            out += separator;
        out += entry.name;
    }
    return out;
}

/**
 * Whole-string std::from_chars parse of an integer (in @p base) or a
 * double. A sign on an unsigned type, trailing text or overflow is a
 * failure, never a silent truncation; @p out is set only on success.
 */
template <typename T>
bool
parseNumber(std::string_view text, T &out, int base = 10)
{
    const char *end = text.data() + text.size();
    T value{};
    std::from_chars_result res;
    if constexpr (std::is_integral_v<T>)
        res = std::from_chars(text.data(), end, value, base);
    else
        res = std::from_chars(text.data(), end, value);
    if (res.ec != std::errc() || res.ptr != end)
        return false;
    out = value;
    return true;
}

/**
 * parseNumber() of an integer spelled like a C literal: a 0x/0X
 * prefix reads hex, a leading 0 octal, anything else decimal (the
 * bases strtoull(..., 0) reads, minus its silent truncation).
 */
template <typename T>
bool
parseIntegerLiteral(std::string_view text, T &out)
{
    int base = 10;
    if (text.starts_with("0x") || text.starts_with("0X")) {
        base = 16;
        text.remove_prefix(2);
    } else if (text.size() > 1 && text[0] == '0') {
        base = 8;
    }
    return parseNumber(text, out, base);
}

} // namespace kagura

#endif // KAGURA_COMMON_SPELLING_HH
