#include "runner/result_codec.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <vector>

namespace kagura
{
namespace runner
{

namespace
{

constexpr std::string_view magic = "KGRB";

/**
 * The optional trailing sections, in the order they are written and
 * must decode. The first is untagged: its first word
 * (replOptAccesses) is nonzero whenever the section is, since hits
 * never exceed accesses. Each later one sits behind a u64 0 marker,
 * which therefore cannot start the untagged one, and its u32 id.
 */
constexpr Section optionalSections[] = {Section::Optgen, Section::TagStats,
                                        Section::L2Stats};

/** The id a tagged section carries: 1 for tag stats, 2 for L2. */
constexpr std::uint32_t
sectionId(Section section)
{
    return static_cast<std::uint32_t>(section) - 1;
}

/**
 * Are all of @p bytes zero? A section holds only counters, so its
 * bytes are zero exactly when its counters are.
 */
bool
allZero(std::string_view bytes)
{
    return bytes.find_first_not_of('\0') == std::string_view::npos;
}

// ---- encoding ------------------------------------------------------

/** Append @p v little-endian. */
template <typename Word>
void
putWord(std::string &out, Word v)
{
    char raw[sizeof(Word)];
    for (std::size_t i = 0; i < sizeof(Word); ++i)
        raw[i] = static_cast<char>(v >> (8 * i));
    out.append(raw, sizeof(Word));
}

/**
 * Write @p value the way its type implies: a u64 counter (an i64 one,
 * such as an energy in zeptojoules, as its two's-complement bits); an
 * array of them; length-prefixed text; count-prefixed records; the
 * oracle log as count-prefixed tallies sorted by address (its
 * canonical order); any other struct through its field list.
 */
template <typename T>
void
put(std::string &out, const T &value)
{
    if constexpr (std::is_same_v<T, std::uint64_t>) {
        putWord(out, value);
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
        putWord(out, static_cast<std::uint64_t>(value));
    } else if constexpr (std::is_array_v<T>) {
        for (const auto &element : value)
            put(out, element);
    } else if constexpr (std::is_same_v<T, std::string>) {
        putWord(out, static_cast<std::uint32_t>(value.size()));
        out += value;
    } else if constexpr (std::is_same_v<T, std::vector<PowerCycleRecord>>) {
        putWord<std::uint64_t>(out, value.size());
        for (const auto &record : value)
            put(out, record);
    } else if constexpr (std::is_same_v<T, OracleLog>) {
        // (address, beneficial, useless); addresses are unique.
        using Tally = std::tuple<Addr, std::uint32_t, std::uint32_t>;
        std::vector<Tally> tallies;
        tallies.reserve(value.size());
        value.forEachTally([&tallies](auto... tally) {
            tallies.emplace_back(tally...);
        });
        std::sort(tallies.begin(), tallies.end());
        putWord<std::uint64_t>(out, tallies.size());
        for (const auto &[addr, beneficial, useless] : tallies) {
            putWord(out, addr);
            putWord(out, beneficial);
            putWord(out, useless);
        }
    } else {
        forEachRow<T>([&](const auto &row) {
            if constexpr (isStored<decltype(row)>)
                put(out, value.*row.member);
        });
    }
}

/** Write the rows of @p r that ride in @p section. */
void
putSection(std::string &out, const SimResult &r, Section section)
{
    forEachRow<SimResult>([&](const auto &row) {
        if (row.section == section)
            put(out, r.*row.member);
    });
}

// ---- decoding ------------------------------------------------------

/**
 * A PowerCycleRecord's bytes are its rows' u64 words, in row order:
 * on a little-endian host, encoded records are the vector's bytes,
 * and decoding copies them whole.
 */
using RecordWords =
    std::array<std::uint64_t, memberCount<PowerCycleRecord>()>;
static_assert(sizeof(PowerCycleRecord) == sizeof(RecordWords));
static_assert([] {
    PowerCycleRecord probe;
    std::uint64_t next = 1;
    forEachRow<PowerCycleRecord>(
        [&](const auto &row) { probe.*row.member = next++; });
    const RecordWords words = std::bit_cast<RecordWords>(probe);
    for (std::size_t i = 0; i < words.size(); ++i)
        if (words[i] != i + 1)
            return false;
    return true;
}());

/** Bounds-checked sequential reader over the payload. */
struct Reader
{
    std::string_view bytes;
    std::size_t pos = 0;
    bool ok = true;

    /** Bytes not yet read. */
    std::size_t left() const { return bytes.size() - pos; }

    void fail() { ok = false; }

    /** The next little-endian word, or 0 (and !ok) past the end. */
    template <typename Word>
    Word
    word()
    {
        if (!ok || left() < sizeof(Word)) {
            fail();
            return 0;
        }
        unsigned char raw[sizeof(Word)];
        std::memcpy(raw, bytes.data() + pos, sizeof(Word));
        Word v = 0;
        for (std::size_t i = 0; i < sizeof(Word); ++i)
            v |= Word{raw[i]} << (8 * i);
        pos += sizeof(Word);
        return v;
    }

    std::uint32_t u32() { return word<std::uint32_t>(); }
    std::uint64_t u64() { return word<std::uint64_t>(); }
};

/** Read what put() wrote for @p value, rejecting non-canonical input. */
template <typename T>
void
read(Reader &in, T &value)
{
    if constexpr (std::is_same_v<T, std::uint64_t>) {
        value = in.u64();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
        value = static_cast<std::int64_t>(in.u64());
    } else if constexpr (std::is_array_v<T>) {
        for (auto &element : value)
            read(in, element);
    } else if constexpr (std::is_same_v<T, std::string>) {
        const std::uint32_t size = in.u32();
        if (in.left() < size)
            return in.fail();
        value = in.bytes.substr(in.pos, size);
        in.pos += size;
    } else if constexpr (std::is_same_v<T, std::vector<PowerCycleRecord>>) {
        // Bound the count by the bytes left before allocating: a
        // record takes a u64 per member.
        const std::uint64_t count = in.u64();
        if (count > in.left() / (8 * memberCount<PowerCycleRecord>()))
            return in.fail();
        value.resize(count);
        if constexpr (std::endian::native == std::endian::little) {
            const std::size_t size = count * sizeof(PowerCycleRecord);
            if (size != 0)
                std::memcpy(value.data(), in.bytes.data() + in.pos, size);
            in.pos += size;
        } else {
            for (auto &record : value)
                read(in, record);
        }
    } else if constexpr (std::is_same_v<T, OracleLog>) {
        const std::uint64_t count = in.u64();
        if (count > in.left() / 16)
            return in.fail();
        Addr last = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            const Addr addr = in.u64();
            const std::uint32_t beneficial = in.u32();
            const std::uint32_t useless = in.u32();
            // Strictly ascending, as the encoder sorts them.
            if (i != 0 && addr <= last)
                return in.fail();
            last = addr;
            value.addTally(addr, beneficial, useless);
        }
    } else {
        forEachRow<T>([&](const auto &row) {
            if constexpr (isStored<decltype(row)>)
                read(in, value.*row.member);
        });
    }
}

/** Read the rows of @p r that ride in @p section. */
void
readSection(Reader &in, SimResult &r, Section section)
{
    forEachRow<SimResult>([&](const auto &row) {
        if (row.section == section)
            read(in, r.*row.member);
    });
}

} // namespace

std::string
encodeResult(const SimResult &r)
{
    std::string out;
    out.reserve(1024 + 32 * r.cycles.size() + 16 * r.oracle.size());
    out += magic;
    putWord(out, resultFormatVersion);
    putSection(out, r, Section::Body);

    // An optional section is written only when one of its counters is
    // nonzero, so a run without OPTgen, tag-layout or L2 telemetry
    // encodes to the byte stream that predates the section.
    for (const Section section : optionalSections) {
        const std::size_t start = out.size();
        if (section != Section::Optgen) {
            putWord<std::uint64_t>(out, 0);
            putWord(out, sectionId(section));
        }
        const std::size_t content = out.size();
        putSection(out, r, section);
        if (allZero(std::string_view(out).substr(content)))
            out.resize(start);
    }
    return out;
}

bool
decodeResult(std::string_view bytes, SimResult &out)
{
    if (!bytes.starts_with(magic))
        return false;
    Reader in{bytes, magic.size()};
    if (in.u32() != resultFormatVersion)
        return false;

    SimResult r;
    readSection(in, r, Section::Body);

    // The optional sections, each at most once and in order. A
    // nonzero word opens the untagged one; a zero marker, a tagged
    // one. The payload must be consumed exactly.
    Section last = Section::Body;
    while (in.ok && in.left() != 0) {
        const std::size_t start = in.pos;
        Section section = Section::Optgen;
        if (in.u64() == 0) {
            const std::uint32_t id = in.u32();
            if (id < sectionId(Section::TagStats) ||
                id > sectionId(Section::L2Stats))
                return false;
            section = static_cast<Section>(id + 1);
        } else {
            in.pos = start; // the word is the section's first
        }
        if (section <= last)
            return false;
        last = section;
        const std::size_t content = in.pos;
        readSection(in, r, section);
        // Canonical form: the encoder drops an all-zero section.
        if (allZero(bytes.substr(content, in.pos - content)))
            return false;
    }
    if (!in.ok)
        return false;
    out = std::move(r);
    return true;
}

} // namespace runner
} // namespace kagura
