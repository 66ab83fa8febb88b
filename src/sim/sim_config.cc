#include "sim/sim_config.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <unordered_map>

#include "common/strings.hh"
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

/**
 * Appends canonical-key lines. Values are appended directly rather
 * than through a fixed printf buffer, so no line is ever truncated;
 * doubles go through std::to_chars(general, 17), which the standard
 * defines to produce exactly printf("%.17g") in the C locale.
 */
struct KeyWriter
{
    std::string &out;
    /** Key prefix, e.g. "dcache." for the cache blocks. */
    std::string_view prefix = {};

    void
    text(std::string_view key, std::string_view value) const
    {
        begin(key);
        out += value;
        out += '\n';
    }

    void
    integer(std::string_view key, std::uint64_t value) const
    {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), value);
        text(key, std::string_view(buf, res.ptr - buf));
    }

    void
    real(std::string_view key, double value) const
    {
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof(buf), value,
                                       std::chars_format::general, 17);
        text(key, std::string_view(buf, res.ptr - buf));
    }

    void
    flag(std::string_view key, bool value) const
    {
        text(key, value ? "1" : "0");
    }

  private:
    void
    begin(std::string_view key) const
    {
        out += prefix;
        out += key;
        out += '=';
    }
};

void
appendCacheConfig(std::string &out, std::string_view prefix,
                  const CacheConfig &cache)
{
    const KeyWriter w{out, prefix};
    w.integer("size_bytes", cache.sizeBytes);
    w.integer("ways", cache.ways);
    w.integer("block_size", cache.blockSize);
    w.integer("segment_bytes", cache.segmentBytes);
    w.text("replacement", replacementPolicyName(cache.replacement));
    // Conditional emission, like the optional trace lines: the
    // baseline layout predates this key, so emitting it would
    // invalidate every cached result (and the committed fixture) for
    // configurations whose behavior did not change.
    if (cache.tagLayout != TagLayoutKind::Baseline)
        w.text("tag_layout", tagLayoutName(cache.tagLayout));
    // Same trick for the signature width: 6-bit signatures predate
    // this key (SignatureTags' historical constant).
    if (cache.sigBits != 6)
        w.integer("sig_bits", cache.sigBits);
}

} // namespace

std::string
SimConfig::canonicalKey() const
{
    std::string out;
    out.reserve(1536);
    const KeyWriter w{out};
    w.text("workload", workload);
    // Trace-backed workloads live in a file, not the name: fold the
    // file's content hash (and resolved path) into the key so stale
    // .kagura-cache entries miss when the trace changes. Referencing
    // the trace subsystem here also guarantees its workload resolver
    // is linked into every simulator binary.
    out += trace::traceWorkloadKeyLines(workload);
    appendCacheConfig(out, "icache.", icache);
    appendCacheConfig(out, "dcache.", dcache);
    // Conditional L2 lines, like the optional tag_layout keys: the
    // hierarchy refactor must not move any no-L2 key, or every cached
    // result (and the committed fixture) would churn for
    // configurations whose behavior did not change.
    if (enableL2) {
        w.flag("l2.enabled", true);
        appendCacheConfig(out, "l2.", l2);
        w.text("l2.governor", governorKindName(l2Governor));
        w.flag("l2.kagura", l2Kagura);
    }
    w.text("governor", governorKindName(governor));
    w.text("compressor", compressorKindName(compressor));
    w.flag("kagura.enabled", enableKagura);
    w.text("kagura.scheme", adaptSchemeName(kagura.scheme));
    w.real("kagura.increase_step", kagura.increaseStep);
    w.integer("kagura.counter_bits", kagura.counterBits);
    w.integer("kagura.history_depth", kagura.historyDepth);
    w.text("kagura.trigger", triggerKindName(kagura.trigger));
    w.integer("kagura.initial_threshold", kagura.initialThreshold);
    w.real("kagura.reward_band", kagura.rewardBand);
    w.real("kagura.voltage_trigger_fraction",
           kagura.voltageTriggerFraction);
    w.flag("kagura.apply_adjustment", kagura.applyAdjustment);
    w.flag("kagura.adaptive_threshold", kagura.adaptiveThreshold);
    w.text("ehs", ehsKindName(ehs));
    w.text("nvm.type", nvmTypeName(nvmType));
    w.integer("nvm.bytes", nvmBytes);
    w.real("capacitor.capacitance", capacitor.capacitance);
    w.real("capacitor.v_max", capacitor.vMax);
    w.real("capacitor.v_restore", capacitor.vRestore);
    w.real("capacitor.v_checkpoint", capacitor.vCheckpoint);
    w.real("capacitor.v_shutdown", capacitor.vShutdown);
    w.real("capacitor.leakage_per_farad", capacitor.leakagePerFarad);
    w.real("energy.clock_hz", energy.clockHz);
    w.real("energy.core_per_instr", energy.corePerInstr);
    w.real("energy.core_leakage", energy.coreLeakage);
    w.real("energy.cache_access", energy.cacheAccess);
    w.real("energy.cache_leakage_per_byte", energy.cacheLeakagePerByte);
    w.real("energy.nvff_write", energy.nvffWrite);
    w.real("energy.nvff_read", energy.nvffRead);
    w.real("energy.monitor_sample", energy.monitorSample);
    w.real("energy.extended_monitor_sample",
           energy.extendedMonitorSample);
    w.integer("energy.reboot_latency", energy.rebootLatency);
    w.real("energy.reboot_energy", energy.rebootEnergy);
    w.real("energy.compaction_energy", energy.compactionEnergy);
    w.real("energy.trace_interval", energy.traceInterval);
    w.text("trace.kind", traceKindName(trace));
    w.integer("trace.seed", traceSeed);
    w.real("trace.scale", traceScale);
    w.integer("trace.intervals", traceIntervals);
    w.flag("decay.enabled", enableDecay);
    w.integer("decay.interval", decay.decayInterval);
    w.flag("prefetch.enabled", enablePrefetch);
    w.flag("infinite_energy", infiniteEnergy);
    w.integer("io_region.interval", ioRegionInterval);
    w.integer("io_region.length", ioRegionLength);
    w.integer("oracle.mode", static_cast<unsigned>(oracle));
    return out;
}

namespace
{

/** Generic inverse of a name() function over an enum value list. */
template <typename Enum, std::size_t N>
std::optional<Enum>
invertName(std::string_view name, const Enum (&values)[N],
           const char *(*to_name)(Enum))
{
    for (Enum value : values) {
        if (iequals(name, to_name(value)))
            return value;
    }
    return std::nullopt;
}

/** Whole-string std::from_chars parse (decimal integer or double). */
template <typename T>
bool
parseNumber(std::string_view value, T &out)
{
    const char *end = value.data() + value.size();
    const auto res = std::from_chars(value.data(), end, out);
    return res.ec == std::errc() && res.ptr == end;
}

bool
parseBool(std::string_view value, bool &out)
{
    if (value != "0" && value != "1")
        return false;
    out = value == "1";
    return true;
}

/** Parse an enum name through @p parser into @p out. */
template <typename Enum>
bool
parseEnum(std::string_view value, Enum &out,
          std::optional<Enum> (*parser)(std::string_view))
{
    const std::optional<Enum> parsed = parser(value);
    if (parsed)
        out = *parsed;
    return parsed.has_value();
}

/**
 * One `key=value` line applied to a config under construction.
 * Handlers return false on a bad value; the table is the complete
 * canonical-key vocabulary, and an unknown key is itself an error
 * (a field this build cannot honour).
 */
using LineHandler = std::function<bool(SimConfig &, std::string_view)>;

const std::unordered_map<std::string, LineHandler> &
lineHandlers()
{
    static const auto *handlers = [] {
        auto *map = new std::unordered_map<std::string, LineHandler>;
        auto add = [map](const std::string &key, LineHandler fn) {
            (*map)[key] = std::move(fn);
        };
        using V = std::string_view;

        add("workload", [](SimConfig &c, V v) {
            c.workload = std::string(v);
            return !c.workload.empty();
        });

        auto addCache = [&](const std::string &prefix,
                            CacheConfig SimConfig::*cache) {
            add(prefix + "size_bytes", [cache](SimConfig &c, V v) {
                return parseNumber(v, (c.*cache).sizeBytes);
            });
            add(prefix + "ways", [cache](SimConfig &c, V v) {
                return parseNumber(v, (c.*cache).ways);
            });
            add(prefix + "block_size", [cache](SimConfig &c, V v) {
                return parseNumber(v, (c.*cache).blockSize);
            });
            add(prefix + "segment_bytes", [cache](SimConfig &c, V v) {
                return parseNumber(v, (c.*cache).segmentBytes);
            });
            add(prefix + "replacement", [cache](SimConfig &c, V v) {
                return parseEnum(v, (c.*cache).replacement,
                                 repl::parseReplKind);
            });
            // Only non-baseline keys carry this line (conditional
            // emission), but the parser accepts all three spellings:
            // a "tag_layout=baseline" line fails the round-trip law
            // instead, keeping one canonical key per configuration.
            add(prefix + "tag_layout", [cache](SimConfig &c, V v) {
                return parseEnum(v, (c.*cache).tagLayout,
                                 tags::parseTagLayoutKind);
            });
            // Same conditional-emission story: only non-default
            // widths (6 is the default) carry this line.
            add(prefix + "sig_bits", [cache](SimConfig &c, V v) {
                return parseNumber(v, (c.*cache).sigBits);
            });
        };
        addCache("icache.", &SimConfig::icache);
        addCache("dcache.", &SimConfig::dcache);

        // The optional shared L2 (emitted as a block only when
        // l2.enabled=1; an l2.* line without it fails the round-trip
        // law, keeping one canonical key per configuration).
        addCache("l2.", &SimConfig::l2);
        add("l2.enabled", [](SimConfig &c, V v) {
            return parseBool(v, c.enableL2);
        });
        add("l2.governor", [](SimConfig &c, V v) {
            return parseEnum(v, c.l2Governor, parseGovernorKind);
        });
        add("l2.kagura", [](SimConfig &c, V v) {
            return parseBool(v, c.l2Kagura);
        });

        add("governor", [](SimConfig &c, V v) {
            return parseEnum(v, c.governor, parseGovernorKind);
        });
        add("compressor", [](SimConfig &c, V v) {
            return parseEnum(v, c.compressor, parseCompressorKind);
        });

        add("kagura.enabled", [](SimConfig &c, V v) {
            return parseBool(v, c.enableKagura);
        });
        add("kagura.scheme", [](SimConfig &c, V v) {
            return parseEnum(v, c.kagura.scheme, parseAdaptScheme);
        });
        add("kagura.increase_step", [](SimConfig &c, V v) {
            return parseNumber(v, c.kagura.increaseStep);
        });
        add("kagura.counter_bits", [](SimConfig &c, V v) {
            return parseNumber(v, c.kagura.counterBits);
        });
        add("kagura.history_depth", [](SimConfig &c, V v) {
            return parseNumber(v, c.kagura.historyDepth);
        });
        add("kagura.trigger", [](SimConfig &c, V v) {
            return parseEnum(v, c.kagura.trigger, parseTriggerKind);
        });
        add("kagura.initial_threshold", [](SimConfig &c, V v) {
            return parseNumber(v, c.kagura.initialThreshold);
        });
        add("kagura.reward_band", [](SimConfig &c, V v) {
            return parseNumber(v, c.kagura.rewardBand);
        });
        add("kagura.voltage_trigger_fraction", [](SimConfig &c, V v) {
            return parseNumber(v, c.kagura.voltageTriggerFraction);
        });
        add("kagura.apply_adjustment", [](SimConfig &c, V v) {
            return parseBool(v, c.kagura.applyAdjustment);
        });
        add("kagura.adaptive_threshold", [](SimConfig &c, V v) {
            return parseBool(v, c.kagura.adaptiveThreshold);
        });

        add("ehs", [](SimConfig &c, V v) {
            return parseEnum(v, c.ehs, parseEhsKind);
        });
        add("nvm.type", [](SimConfig &c, V v) {
            return parseEnum(v, c.nvmType, parseNvmType);
        });
        add("nvm.bytes", [](SimConfig &c, V v) {
            return parseNumber(v, c.nvmBytes);
        });

        add("capacitor.capacitance", [](SimConfig &c, V v) {
            return parseNumber(v, c.capacitor.capacitance);
        });
        add("capacitor.v_max", [](SimConfig &c, V v) {
            return parseNumber(v, c.capacitor.vMax);
        });
        add("capacitor.v_restore", [](SimConfig &c, V v) {
            return parseNumber(v, c.capacitor.vRestore);
        });
        add("capacitor.v_checkpoint", [](SimConfig &c, V v) {
            return parseNumber(v, c.capacitor.vCheckpoint);
        });
        add("capacitor.v_shutdown", [](SimConfig &c, V v) {
            return parseNumber(v, c.capacitor.vShutdown);
        });
        add("capacitor.leakage_per_farad", [](SimConfig &c, V v) {
            return parseNumber(v, c.capacitor.leakagePerFarad);
        });

        add("energy.clock_hz", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.clockHz);
        });
        add("energy.core_per_instr", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.corePerInstr);
        });
        add("energy.core_leakage", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.coreLeakage);
        });
        add("energy.cache_access", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.cacheAccess);
        });
        add("energy.cache_leakage_per_byte", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.cacheLeakagePerByte);
        });
        add("energy.nvff_write", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.nvffWrite);
        });
        add("energy.nvff_read", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.nvffRead);
        });
        add("energy.monitor_sample", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.monitorSample);
        });
        add("energy.extended_monitor_sample", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.extendedMonitorSample);
        });
        add("energy.reboot_latency", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.rebootLatency);
        });
        add("energy.reboot_energy", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.rebootEnergy);
        });
        add("energy.compaction_energy", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.compactionEnergy);
        });
        add("energy.trace_interval", [](SimConfig &c, V v) {
            return parseNumber(v, c.energy.traceInterval);
        });

        add("trace.kind", [](SimConfig &c, V v) {
            return parseEnum(v, c.trace, parseTraceKind);
        });
        add("trace.seed", [](SimConfig &c, V v) {
            return parseNumber(v, c.traceSeed);
        });
        add("trace.scale", [](SimConfig &c, V v) {
            return parseNumber(v, c.traceScale);
        });
        add("trace.intervals", [](SimConfig &c, V v) {
            return parseNumber(v, c.traceIntervals);
        });

        add("decay.enabled", [](SimConfig &c, V v) {
            return parseBool(v, c.enableDecay);
        });
        add("decay.interval", [](SimConfig &c, V v) {
            return parseNumber(v, c.decay.decayInterval);
        });
        add("prefetch.enabled", [](SimConfig &c, V v) {
            return parseBool(v, c.enablePrefetch);
        });
        add("infinite_energy", [](SimConfig &c, V v) {
            return parseBool(v, c.infiniteEnergy);
        });
        add("io_region.interval", [](SimConfig &c, V v) {
            return parseNumber(v, c.ioRegionInterval);
        });
        add("io_region.length", [](SimConfig &c, V v) {
            return parseNumber(v, c.ioRegionLength);
        });
        add("oracle.mode", [](SimConfig &c, V v) {
            unsigned mode = 0;
            if (!parseNumber(v, mode) || mode > 2)
                return false;
            c.oracle = static_cast<OracleMode>(mode);
            return true;
        });
        return map;
    }();
    return *handlers;
}

} // namespace

ParseStatus
SimConfig::parse(std::string_view text, SimConfig &out,
                 std::string &error)
{
    out = SimConfig{};
    // The two trace lines are descriptive, not config fields: they
    // are recomputed from the local file by canonicalKey(), so the
    // parser records them for the trust check instead of applying
    // them through the handler table.
    std::string traceHash;
    std::string tracePath;

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
        const std::string key(line.substr(0, eq));
        const std::string_view value = line.substr(eq + 1);

        if (key == "workload.trace_hash") {
            traceHash = std::string(value);
            continue;
        }
        if (key == "workload.trace_path") {
            tracePath = std::string(value);
            continue;
        }
        const auto &handlers = lineHandlers();
        const auto it = handlers.find(key);
        if (it == handlers.end()) {
            error = "unknown key '" + key + "'";
            return ParseStatus::Malformed;
        }
        if (!it->second(out, value)) {
            error = "bad value in '" + std::string(line) + "'";
            return ParseStatus::Malformed;
        }
    }
    if (out.workload.empty()) {
        error = "missing workload line";
        return ParseStatus::Malformed;
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

std::optional<GovernorKind>
parseGovernorKind(std::string_view name)
{
    static constexpr GovernorKind values[] = {
        GovernorKind::None, GovernorKind::Always, GovernorKind::Acc};
    return invertName(name, values, governorKindName);
}

std::optional<CompressorKind>
parseCompressorKind(std::string_view name)
{
    static constexpr CompressorKind values[] = {
        CompressorKind::Bdi, CompressorKind::Fpc, CompressorKind::CPack,
        CompressorKind::Dzc, CompressorKind::Bpc, CompressorKind::Fvc};
    return invertName(name, values, compressorKindName);
}

std::optional<EhsKind>
parseEhsKind(std::string_view name)
{
    return invertName(name, allEhsKinds, ehsKindName);
}

std::optional<NvmType>
parseNvmType(std::string_view name)
{
    static constexpr NvmType values[] = {NvmType::ReRam, NvmType::Pcm,
                                         NvmType::SttRam};
    return invertName(name, values, nvmTypeName);
}

std::optional<TraceKind>
parseTraceKind(std::string_view name)
{
    static constexpr TraceKind values[] = {
        TraceKind::RfHome, TraceKind::Solar, TraceKind::Thermal,
        TraceKind::Constant};
    return invertName(name, values, traceKindName);
}

std::optional<AdaptScheme>
parseAdaptScheme(std::string_view name)
{
    static constexpr AdaptScheme values[] = {
        AdaptScheme::Aimd, AdaptScheme::Miad, AdaptScheme::Aiad,
        AdaptScheme::Mimd};
    return invertName(name, values, adaptSchemeName);
}

std::optional<TriggerKind>
parseTriggerKind(std::string_view name)
{
    static constexpr TriggerKind values[] = {TriggerKind::Memory,
                                             TriggerKind::Voltage};
    return invertName(name, values, triggerKindName);
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
    const auto kind = parseGovernorKind(governor);
    if (!kind || *kind == GovernorKind::None) {
        error = "bad L2 governor in '" + std::string(spec) + "'";
        return false;
    }
    cfg.l2Governor = *kind;
    cfg.l2Kagura = kagura;
    return true;
}

} // namespace kagura
