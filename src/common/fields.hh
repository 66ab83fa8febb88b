/**
 * @file
 * Field lists: a struct's members declared once, as rows, so every
 * reader of the struct -- the result codec, the JSON report, the
 * metric export, the any-nonzero and sum folds -- walks the one list.
 *
 * A struct lists its rows in a static fields() function next to its
 * members, in the order its readers emit them. fieldsOf<T> checks at
 * compile time that the rows cover every member, so a new counter is
 * one member plus one row, and a member without a row fails the
 * build.
 */

#ifndef KAGURA_COMMON_FIELDS_HH
#define KAGURA_COMMON_FIELDS_HH

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

namespace kagura
{

/** Converts to any member type, so brace-initializing counts fields. */
struct AnyMember
{
    template <typename T>
    operator T() const;
};

/**
 * Number of members of aggregate @p T. Brace elision counts an array
 * member once per element (no AnyMember converts to an array type).
 */
template <typename T, std::size_t... I>
constexpr std::size_t
memberCount(std::index_sequence<I...> = {})
{
    if constexpr (requires { T{(void(I), AnyMember{})..., AnyMember{}}; })
        return memberCount<T>(std::make_index_sequence<sizeof...(I) + 1>{});
    else
        return sizeof...(I);
}

/**
 * The result-codec section a row rides in (runner/result_codec.hh):
 * the body, then the optional sections in this order. Only
 * SimResult's rows name one.
 */
enum class Section : std::uint8_t
{
    Body,
    Optgen,   ///< untagged
    TagStats, ///< tagged 1
    L2Stats,  ///< tagged 2
};

/**
 * One member of Owner. Readers handle it the way its type implies: a
 * counter, a fixed array of counters (sparse "<name>/<k>" metrics), a
 * field-listed struct, or a type the codec spells itself.
 */
template <typename Owner, typename T>
struct Member
{
    std::string_view name;
    T Owner::*member;
    Section section = Section::Body;

    /** Members covered, as memberCount() counts them. */
    static constexpr std::size_t covers =
        std::is_array_v<T> ? std::extent_v<T> : 1;
};

/** A value computed from Owner's members: reported, never stored. */
template <typename Owner>
struct Derived
{
    std::string_view name;
    double (Owner::*value)() const;

    static constexpr std::size_t covers = 0;
};

/** Does @p Row (a row or a reference to one) name a stored member? */
template <typename Row>
constexpr bool isStored = requires(Row row) { row.member; };

/** T::fields(), once checked to cover every member of @p T. */
template <typename T>
constexpr auto
checkedFields()
{
    constexpr auto rows = T::fields();
    constexpr std::size_t covered = std::apply(
        [](const auto &...row) { return (row.covers + ... + 0); }, rows);
    static_assert(covered == memberCount<T>(),
                  "every member needs a row in its struct's fields()");
    return rows;
}

template <typename T>
inline constexpr auto fieldsOf = checkedFields<T>();

/** Calls @p fn(row) for every row of @p T, in order. */
template <typename T, typename Fn>
constexpr void
forEachRow(Fn &&fn)
{
    std::apply([&fn](const auto &...row) { (fn(row), ...); }, fieldsOf<T>);
}

/** Is @p T an array (of counters)? */
template <typename T>
constexpr bool isArray = std::is_array_v<std::remove_reference_t<T>>;

/**
 * Calls @p fn(x, y) on each pair of matching counters of flat
 * field-listed @p a and @p b (an array row gives one pair per
 * element).
 */
template <typename T, typename U, typename Fn>
constexpr void
forEachCounterPair(T &a, U &b, Fn &&fn)
{
    forEachRow<std::remove_const_t<T>>([&](const auto &row) {
        if constexpr (isStored<decltype(row)>) {
            auto &x = a.*row.member;
            auto &y = b.*row.member;
            if constexpr (isArray<decltype(x)>)
                for (std::size_t i = 0; i < std::size(x); ++i)
                    fn(x[i], y[i]);
            else
                fn(x, y);
        }
    });
}

/** Is any counter of @p stats nonzero? */
template <typename T>
constexpr bool
anyNonzero(const T &stats)
{
    bool any = false;
    forEachCounterPair(stats, stats, [&any](std::uint64_t v, std::uint64_t) {
        any = any || v;
    });
    return any;
}

/** Add every counter of @p from into @p into (aggregation). */
template <typename T>
constexpr void
addFields(T &into, const T &from)
{
    forEachCounterPair(into, from,
                       [](std::uint64_t &sum, std::uint64_t v) { sum += v; });
}

} // namespace kagura

#endif // KAGURA_COMMON_FIELDS_HH
