#include "sim/sim_config.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fields.hh"
#include "common/spelling.hh"
#include "core/workload.hh"
#include "trace/trace_workload.hh"

namespace kagura
{

std::string
SimConfig::describe() const
{
    std::string out = workload;
    out += " / ";
    out += ehsKindName(ehs);
    if (governor == GovernorKind::None) {
        out += " / no-compression";
    } else {
        out += " / ";
        out += compressorKindName(compressor);
        out += "+";
        out += governorKindName(governor);
        if (enableKagura) {
            out += "+Kagura(";
            out += triggerKindName(kagura.trigger);
            out += ")";
        }
    }
    if (enableDecay)
        out += " +EDBP";
    if (enablePrefetch)
        out += " +IPEX";
    // LRU is Table I's fixed policy; only deviations earn a label.
    if (icache.replacement != ReplKind::Lru ||
        dcache.replacement != ReplKind::Lru) {
        out += " / repl=";
        out += replacementPolicyName(dcache.replacement);
        if (icache.replacement != dcache.replacement) {
            out += "/i=";
            out += replacementPolicyName(icache.replacement);
        }
    }
    // Likewise for the tag layout: baseline is the paper's scheme.
    if (icache.tagLayout != TagLayoutKind::Baseline ||
        dcache.tagLayout != TagLayoutKind::Baseline) {
        out += " / tags=";
        out += tagLayoutName(dcache.tagLayout);
        if (icache.tagLayout != dcache.tagLayout) {
            out += "/i=";
            out += tagLayoutName(icache.tagLayout);
        }
    }
    if (enableL2) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " / L2=%uB/%uw", l2.sizeBytes,
                      l2.ways);
        out += buf;
        if (l2Governor != GovernorKind::None) {
            out += "+";
            out += governorKindName(l2Governor);
            if (l2Kagura)
                out += "+Kagura";
        }
    }
    return out;
}

namespace
{

// ---------------------------------------------------------------------
// Codecs: how one value is written as, and read from, key text.
// format() returns a view of @p buf or of static or member text, so
// writing a line allocates nothing.

/** Scratch for one formatted value (a %.17g double fits). */
using ValueBuffer = char[32];

/**
 * The codec a member's type implies: decimal integers, 0/1 flags, the
 * workload name as text, and doubles printed round-trip exact
 * (std::to_chars(general, 17) is defined to print exactly what
 * printf("%.17g") does in the C locale).
 */
struct PlainCodec
{
    template <typename T>
    static std::string_view
    format(ValueBuffer &buf, const T &value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            return value ? "1" : "0";
        } else if constexpr (std::is_same_v<T, std::string>) {
            return value;
        } else {
            std::to_chars_result res;
            if constexpr (std::is_floating_point_v<T>)
                res = std::to_chars(buf, std::end(buf), value,
                                    std::chars_format::general, 17);
            else
                res = std::to_chars(buf, std::end(buf), value);
            return {buf, static_cast<std::size_t>(res.ptr - buf)};
        }
    }

    template <typename T>
    static bool
    read(std::string_view text, T &value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            value = text == "1";
            return value || text == "0";
        } else if constexpr (std::is_same_v<T, std::string>) {
            value = text;
            return !value.empty();
        } else {
            return parseNumber(text, value);
        }
    }
};

/** An enum spelled through its name table (common/spelling.hh). */
template <const auto &table>
struct NameCodec
{
    using Enum = decltype(table[0].value);

    static std::string_view
    format(ValueBuffer &, Enum value)
    {
        return enumName<table>(value);
    }

    static bool
    read(std::string_view text, Enum &value)
    {
        const std::optional<Enum> parsed = enumFromName(table, text);
        if (parsed)
            value = *parsed;
        return parsed.has_value();
    }
};

constexpr PlainCodec plain{};
template <const auto &table>
constexpr NameCodec<table> names{};

// ---------------------------------------------------------------------
// Rows of the field list.

/**
 * When a row's line is left out of the key. Omission exists for keys
 * added after cached results did: a line that only appears when it
 * differs from the behaviour that predates it leaves every older key
 * (and the committed cache fixture) byte-identical.
 */
enum class Omit
{
    Never,
    /** The value equals the member's default in a value-initialized
     *  owner struct (e.g. tag_layout=baseline, sig_bits=6). */
    WhenDefault,
    /** The config has no L2 (the whole l2.* block). */
    WithoutL2,
};

/** One `key=value` line for @p member of Owner. */
template <typename Owner, typename T, typename Codec = PlainCodec>
struct Field
{
    std::string_view key;
    T Owner::*member;
    Codec codec = {};
    Omit omit = Omit::Never;
};

/** The rows of sub-struct @p member, each key prefixed by @p prefix. */
template <typename Owner, typename Sub, typename Rows>
struct Group
{
    std::string_view prefix;
    Sub Owner::*member;
    Rows rows;
    /** Never or WithoutL2; applies to every row of the group. */
    Omit omit = Omit::Never;
};

/**
 * The workload.trace_hash / trace_path lines. They are derived from
 * the file a trace workload names, not from a config field, so they
 * are written from the file and, when read, only recorded for
 * SimConfig::parse's trust check.
 */
struct TraceLines
{
};

// ---------------------------------------------------------------------
// The field list: every canonical-key line, in key order. Adding a
// config field is one row here; the key writer, the parser and the
// field-count guard below all follow from it. A row's codec is the
// one its member's type implies unless it names an enum table.

constexpr std::tuple cacheFields{
    Field{"size_bytes", &CacheConfig::sizeBytes},
    Field{"ways", &CacheConfig::ways},
    Field{"block_size", &CacheConfig::blockSize},
    Field{"segment_bytes", &CacheConfig::segmentBytes},
    Field{"replacement", &CacheConfig::replacement, names<replKindNames>},
    Field{"tag_layout", &CacheConfig::tagLayout, names<tagLayoutNames>,
          Omit::WhenDefault},
    Field{"sig_bits", &CacheConfig::sigBits, plain, Omit::WhenDefault},
};

constexpr std::tuple kaguraFields{
    Field{"scheme", &KaguraConfig::scheme, names<adaptSchemeNames>},
    Field{"increase_step", &KaguraConfig::increaseStep},
    Field{"counter_bits", &KaguraConfig::counterBits},
    Field{"history_depth", &KaguraConfig::historyDepth},
    Field{"trigger", &KaguraConfig::trigger, names<triggerKindNames>},
    Field{"initial_threshold", &KaguraConfig::initialThreshold},
    Field{"reward_band", &KaguraConfig::rewardBand},
    Field{"voltage_trigger_fraction", &KaguraConfig::voltageTriggerFraction},
    Field{"apply_adjustment", &KaguraConfig::applyAdjustment},
    Field{"adaptive_threshold", &KaguraConfig::adaptiveThreshold},
};

constexpr std::tuple capacitorFields{
    Field{"capacitance", &CapacitorConfig::capacitance},
    Field{"v_max", &CapacitorConfig::vMax},
    Field{"v_restore", &CapacitorConfig::vRestore},
    Field{"v_checkpoint", &CapacitorConfig::vCheckpoint},
    Field{"v_shutdown", &CapacitorConfig::vShutdown},
    Field{"leakage_per_farad", &CapacitorConfig::leakagePerFarad},
};

constexpr std::tuple energyFields{
    Field{"clock_hz", &EnergyModel::clockHz},
    Field{"core_per_instr", &EnergyModel::corePerInstr},
    Field{"core_leakage", &EnergyModel::coreLeakage},
    Field{"cache_access", &EnergyModel::cacheAccess},
    Field{"cache_leakage_per_byte", &EnergyModel::cacheLeakagePerByte},
    Field{"nvff_write", &EnergyModel::nvffWrite},
    Field{"nvff_read", &EnergyModel::nvffRead},
    Field{"monitor_sample", &EnergyModel::monitorSample},
    Field{"extended_monitor_sample", &EnergyModel::extendedMonitorSample},
    Field{"reboot_latency", &EnergyModel::rebootLatency},
    Field{"reboot_energy", &EnergyModel::rebootEnergy},
    Field{"compaction_energy", &EnergyModel::compactionEnergy},
    Field{"trace_interval", &EnergyModel::traceInterval},
};

constexpr std::tuple decayFields{
    Field{"interval", &DecayConfig::decayInterval},
};

constexpr std::tuple configFields{
    Field{"workload", &SimConfig::workload},
    TraceLines{},
    Group{"icache.", &SimConfig::icache, cacheFields},
    Group{"dcache.", &SimConfig::dcache, cacheFields},
    Field{"l2.enabled", &SimConfig::enableL2, plain, Omit::WithoutL2},
    Group{"l2.", &SimConfig::l2, cacheFields, Omit::WithoutL2},
    Field{"l2.governor", &SimConfig::l2Governor, names<governorKindNames>,
          Omit::WithoutL2},
    Field{"l2.kagura", &SimConfig::l2Kagura, plain, Omit::WithoutL2},
    Field{"governor", &SimConfig::governor, names<governorKindNames>},
    Field{"compressor", &SimConfig::compressor, names<compressorKindNames>},
    Field{"kagura.enabled", &SimConfig::enableKagura},
    Group{"kagura.", &SimConfig::kagura, kaguraFields},
    Field{"ehs", &SimConfig::ehs, names<ehsKindNames>},
    Field{"nvm.type", &SimConfig::nvmType, names<nvmTypeNames>},
    Field{"nvm.bytes", &SimConfig::nvmBytes},
    Group{"capacitor.", &SimConfig::capacitor, capacitorFields},
    Group{"energy.", &SimConfig::energy, energyFields},
    Field{"trace.kind", &SimConfig::trace, names<traceKindNames>},
    Field{"trace.seed", &SimConfig::traceSeed},
    Field{"trace.scale", &SimConfig::traceScale},
    Field{"trace.intervals", &SimConfig::traceIntervals},
    Field{"decay.enabled", &SimConfig::enableDecay},
    Group{"decay.", &SimConfig::decay, decayFields},
    Field{"prefetch.enabled", &SimConfig::enablePrefetch},
    Field{"infinite_energy", &SimConfig::infiniteEnergy},
    Field{"io_region.interval", &SimConfig::ioRegionInterval},
    Field{"io_region.length", &SimConfig::ioRegionLength},
    Field{"oracle.mode", &SimConfig::oracle, names<oracleModeOrdinals>},
};

// ---------------------------------------------------------------------
// Forgotten-field guard: each struct's member count must equal its
// row count, so a member added without a row fails the build instead
// of silently mapping two behaviours onto one cache entry.

template <typename T, typename Rows>
constexpr bool coveredBy = memberCount<T>() == std::tuple_size_v<Rows>;

static_assert(coveredBy<CacheConfig, decltype(cacheFields)>);
static_assert(coveredBy<KaguraConfig, decltype(kaguraFields)>);
static_assert(coveredBy<CapacitorConfig, decltype(capacitorFields)>);
static_assert(coveredBy<EnergyModel, decltype(energyFields)>);
static_assert(coveredBy<DecayConfig, decltype(decayFields)>);
// SimConfig: the TraceLines row has no member, and `verbose` and
// `oracleLog` deliberately have no row (see canonicalKey() in
// sim_config.hh: output only, and a runtime pointer).
static_assert(memberCount<SimConfig>() + 1 ==
              std::tuple_size_v<decltype(configFields)> + 2);

// ---------------------------------------------------------------------
// One walk serves both directions: visitRows() hands every Field row
// and the TraceLines row to @p visit in key order, descending into a
// Group's rows on its sub-struct under its prefix and omission, until
// @p visit returns true.

template <typename Rows, typename Object, typename Visitor>
bool
visitRows(const Rows &rows, Object &object, std::string_view prefix,
          Omit groupOmit, Visitor &visit)
{
    const auto one = [&](const auto &row) {
        if constexpr (requires { row.rows; })
            return visitRows(row.rows, object.*row.member, row.prefix,
                             row.omit, visit);
        else
            return visit(row, object, prefix, groupOmit);
    };
    return std::apply([&](const auto &...row) { return (one(row) || ...); },
                      rows);
}

/** A value-initialized Owner: the reference for Omit::WhenDefault. */
template <typename Owner>
const Owner defaultOf{};

/** Append `<prefix><key>=<value>\n`. */
[[gnu::noinline]] void
appendLine(std::string &out, std::string_view prefix, std::string_view key,
           std::string_view value)
{
    out += prefix;
    out += key;
    out += '=';
    out += value;
    out += '\n';
}

/** The bytes of a scalar row value, zero-extended to 64 bits. */
template <typename T>
std::uint64_t
bitsOf(const T &value)
{
    static_assert(std::is_scalar_v<T> && sizeof(T) <= sizeof(std::uint64_t));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    return bits;
}

/**
 * Every Field row's line for SimConfig{}'s value, in walk order,
 * whether or not the default config omits the row. Most values in a
 * key are Table I defaults, so canonicalKey() copies a row's line from
 * here when its value has the default's bit pattern, and consecutive
 * such rows as one run of text. Bits, not ==, decide: -0.0 == 0.0 and
 * a NaN equals nothing, but each must be formatted.
 */
struct DefaultLines
{
    struct Row
    {
        /** bitsOf() the default value; unused for a string row. */
        std::uint64_t bits;
        /** The row's line is text[begin, end). */
        std::size_t begin;
        std::size_t end;
    };

    std::string text;
    std::vector<Row> rows;

    template <typename Owner, typename T, typename Codec>
    bool
    operator()(const Field<Owner, T, Codec> &field, const Owner &owner,
               std::string_view prefix, Omit)
    {
        const T &value = owner.*field.member;
        Row row{0, text.size(), 0};
        if constexpr (std::is_scalar_v<T>)
            row.bits = bitsOf(value);
        ValueBuffer buf;
        appendLine(text, prefix, field.key, field.codec.format(buf, value));
        row.end = text.size();
        rows.push_back(row);
        return false;
    }

    bool
    operator()(const TraceLines &, const SimConfig &, std::string_view,
               Omit)
    {
        return false;
    }
};

/** The default lines, built on first use. */
[[gnu::noinline]] const DefaultLines &
defaultLines()
{
    static const DefaultLines lines = [] {
        DefaultLines built;
        const SimConfig config;
        visitRows(configFields, config, {}, Omit::Never, built);
        return built;
    }();
    return lines;
}

/** Writes every row that is not omitted (canonicalKey()). */
struct KeyWriter
{
    std::string &out;
    const SimConfig &config;
    const DefaultLines &defaults;
    /** Index of the next Field row in defaults.rows. */
    std::size_t row = 0;
    /** defaults.text[runBegin, runEnd): default lines not yet written. */
    std::size_t runBegin = 0;
    std::size_t runEnd = 0;

    void
    flush()
    {
        if (runEnd != runBegin)
            out.append(defaults.text, runBegin, runEnd - runBegin);
        runBegin = runEnd = 0;
    }

    template <typename Owner, typename T, typename Codec>
    bool
    operator()(const Field<Owner, T, Codec> &field, const Owner &owner,
               std::string_view prefix, Omit groupOmit)
    {
        const DefaultLines::Row &line = defaults.rows[row++];
        const T &value = owner.*field.member;
        if ((field.omit == Omit::WhenDefault &&
             value == defaultOf<Owner>.*field.member) ||
            ((field.omit == Omit::WithoutL2 ||
              groupOmit == Omit::WithoutL2) &&
             !config.enableL2))
            return false;
        if constexpr (std::is_scalar_v<T>) {
            if (bitsOf(value) == line.bits) {
                if (line.begin != runEnd) {
                    flush();
                    runBegin = line.begin;
                }
                runEnd = line.end;
                return false;
            }
        }
        flush();
        ValueBuffer buf;
        appendLine(out, prefix, field.key, field.codec.format(buf, value));
        return false;
    }

    bool
    operator()(const TraceLines &, const SimConfig &, std::string_view,
               Omit)
    {
        flush();
        out += trace::traceWorkloadKeyLines(config.workload);
        return false;
    }
};

/** Applies one `key=value` line through the row its key names. */
struct LineReader
{
    /** Where the trace lines go (SimConfig::parse's trust check). */
    std::string &traceHash;
    std::string &tracePath;
    std::string_view key = {};
    std::string_view value = {};
    bool ok = true;

    template <typename Owner, typename T, typename Codec>
    bool
    operator()(const Field<Owner, T, Codec> &field, Owner &owner,
               std::string_view prefix, Omit)
    {
        if (key.size() != prefix.size() + field.key.size() ||
            !key.starts_with(prefix) || !key.ends_with(field.key))
            return false;
        ok = field.codec.read(value, owner.*field.member);
        return true;
    }

    bool
    operator()(const TraceLines &, SimConfig &, std::string_view, Omit)
    {
        if (key == trace::traceHashKey)
            traceHash = value;
        else if (key == trace::tracePathKey)
            tracePath = value;
        else
            return false;
        return true;
    }
};

} // namespace

// canonicalKey() runs on every warm cache hit, so it is flattened:
// the row walk, the omission checks (constant per row), the default
// bit comparisons and the value formatting inline into one straight
// run, and only appendLine() and the default-line set-up stay calls.
[[gnu::flatten]] std::string
SimConfig::canonicalKey() const
{
    std::string out;
    out.reserve(1536);
    KeyWriter writer{out, *this, defaultLines()};
    visitRows(configFields, *this, {}, Omit::Never, writer);
    writer.flush();
    return out;
}

ParseStatus
SimConfig::parse(std::string_view text, SimConfig &out,
                 std::string &error)
{
    out = SimConfig{};
    // The two trace lines are descriptive, not config fields: they
    // are recomputed from the local file by canonicalKey(), so the
    // parser records them for the trust check below.
    std::string traceHash;
    std::string tracePath;
    LineReader reader{traceHash, tracePath};
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos) {
            error = "missing trailing newline";
            return ParseStatus::Malformed;
        }
        const std::string_view line = text.substr(pos, nl - pos);
        pos = nl + 1;
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos || eq == 0) {
            error = "bad line '" + std::string(line) + "'";
            return ParseStatus::Malformed;
        }
        reader.key = line.substr(0, eq);
        reader.value = line.substr(eq + 1);
        // The list is the complete key vocabulary: an unknown key is
        // a field this build cannot honour.
        if (!visitRows(configFields, out, {}, Omit::Never, reader)) {
            error = "unknown key '" + std::string(reader.key) + "'";
            return ParseStatus::Malformed;
        }
        if (!reader.ok) {
            error = "bad value in '" + std::string(line) + "'";
            return ParseStatus::Malformed;
        }
    }

    // Resolve trace-backed workloads against the local filesystem and
    // verify the content hash the key pinned.
    if (!tracePath.empty()) {
        if (!std::filesystem::exists(tracePath)) {
            error = "trace file '" + tracePath + "' not found";
            return ParseStatus::TraceMismatch;
        }
        if (!trace::isTraceWorkloadName(out.workload) &&
            !workloadExists(out.workload))
            trace::registerTraceFile(out.workload, tracePath);
        char local[17];
        std::snprintf(local, sizeof(local), "%016" PRIx64,
                      trace::traceFileHash(tracePath));
        if (traceHash != local) {
            error = "trace file '" + tracePath + "' content hash " +
                    local + " != key's " + traceHash;
            return ParseStatus::TraceMismatch;
        }
    } else if (!traceHash.empty()) {
        error = "trace_hash without trace_path";
        return ParseStatus::Malformed;
    }
    // A trace workload must name the file its trace_path line pins:
    // canonicalKey() hashes that file, and a missing one is fatal.
    if (trace::isTraceWorkloadName(out.workload) &&
        trace::traceWorkloadPath(out.workload) != tracePath) {
        error = "workload '" + out.workload +
                "' does not name the key's trace_path";
        return ParseStatus::Malformed;
    }
    if (!workloadExists(out.workload)) {
        error = "unknown workload '" + out.workload + "'";
        return ParseStatus::Malformed;
    }

    // The round-trip law is the parser's completeness proof: if any
    // accepted line failed to land in the config (or the local trace
    // file resolves differently), re-serializing exposes it here
    // rather than as a silently different simulation.
    if (out.canonicalKey() != text) {
        error = "canonical key does not round-trip";
        return ParseStatus::Malformed;
    }
    return ParseStatus::Ok;
}

bool
applyL2Spec(std::string_view spec, SimConfig &cfg, std::string &error)
{
    if (iequals(spec, "none")) {
        cfg.enableL2 = false;
        cfg.l2Governor = GovernorKind::None;
        cfg.l2Kagura = false;
        return true;
    }

    // SIZExWAYS[:GOVERNOR[+kagura]]
    std::string_view geometry = spec;
    std::string_view governor;
    const std::size_t colon = spec.find(':');
    if (colon != std::string_view::npos) {
        geometry = spec.substr(0, colon);
        governor = spec.substr(colon + 1);
    }

    const std::size_t x = geometry.find('x');
    unsigned size = 0;
    unsigned ways = 0;
    if (x == std::string_view::npos ||
        !parseNumber(geometry.substr(0, x), size) ||
        !parseNumber(geometry.substr(x + 1), ways) || size == 0 ||
        ways == 0) {
        error = "bad L2 geometry '" + std::string(spec) +
                "' (want none | SIZExWAYS[:GOVERNOR[+kagura]])";
        return false;
    }

    cfg.enableL2 = true;
    cfg.l2.sizeBytes = size;
    cfg.l2.ways = ways;
    cfg.l2Governor = GovernorKind::None;
    cfg.l2Kagura = false;
    if (colon == std::string_view::npos)
        return true;

    bool kagura = false;
    const std::size_t plus = governor.find('+');
    if (plus != std::string_view::npos) {
        if (!iequals(governor.substr(plus + 1), "kagura")) {
            error = "bad L2 suffix '" + std::string(spec) +
                    "' (only '+kagura' may follow the governor)";
            return false;
        }
        kagura = true;
        governor = governor.substr(0, plus);
    }
    const auto kind = enumFromName(governorKindNames, governor);
    if (!kind || *kind == GovernorKind::None) {
        error = "bad L2 governor in '" + std::string(spec) + "'";
        return false;
    }
    cfg.l2Governor = *kind;
    cfg.l2Kagura = kagura;
    return true;
}

} // namespace kagura
