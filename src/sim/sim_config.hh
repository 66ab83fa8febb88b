/**
 * @file
 * Top-level simulation configuration: one struct selecting the
 * workload, the platform (caches, NVM, capacitor, trace, EHS design)
 * and the compression stack (algorithm, governor, Kagura, oracle).
 * Defaults reproduce the Table I configuration.
 */

#ifndef KAGURA_SIM_SIM_CONFIG_HH
#define KAGURA_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "cache/cache.hh"
#include "cache/chain.hh"
#include "cache/decay.hh"
#include "energy/capacitor.hh"
#include "energy/energy_model.hh"
#include "energy/power_trace.hh"
#include "ehs/ehs.hh"
#include "kagura/kagura.hh"
#include "kagura/oracle.hh"

namespace kagura
{

// GovernorKind and OracleMode live with the chain factory in
// cache/chain.hh; re-exported here for configuration consumers.

/** Why a canonical key failed to parse (SimConfig::parse). */
enum class ParseStatus
{
    Ok,
    Malformed,     ///< bad line syntax, unknown key, bad value
    TraceMismatch, ///< trace file missing or content hash differs
};

/** Everything one simulation run needs. */
struct SimConfig
{
    /** Application name (see workloadNames()). */
    std::string workload = "crc32";

    CacheConfig icache{};
    CacheConfig dcache{};

    GovernorKind governor = GovernorKind::None;
    CompressorKind compressor = CompressorKind::Bdi;

    /**
     * Optional shared L2 between the two L1s and NVM
     * (docs/HIERARCHY.md). Non-inclusive, write-back, with
     * write-no-allocate absorption of L1 writebacks; it has its own
     * tag layout, replacement policy, decay, per-level metrics, and
     * -- via l2Governor/l2Kagura -- its own compression chain, so
     * Kagura can gate each level independently. Off by default: the
     * no-L2 configuration is bit-identical to the single-level
     * simulator (goldens, fixture, salt all pinned).
     */
    bool enableL2 = false;
    CacheConfig l2{1024, 4, 32, 8, ReplKind::Lru,
                   TagLayoutKind::Baseline};
    /** Compression governor for the L2's own chain (None = raw L2). */
    GovernorKind l2Governor = GovernorKind::None;
    /** Wrap the L2 governor in its own Kagura mode controller. */
    bool l2Kagura = false;

    /** Wrap the governor in Kagura's mode controller. */
    bool enableKagura = false;
    KaguraConfig kagura{};

    EhsKind ehs = EhsKind::NvsramCache;

    NvmType nvmType = NvmType::ReRam;
    std::uint64_t nvmBytes = 16ULL * 1024 * 1024;

    CapacitorConfig capacitor{};
    EnergyModel energy{};

    TraceKind trace = TraceKind::RfHome;
    std::uint64_t traceSeed = 0x6b616775;
    double traceScale = 1.0;
    std::uint64_t traceIntervals = 200000;

    /** EDBP dead-block prediction (Fig. 20). */
    bool enableDecay = false;
    DecayConfig decay{};

    /** IPEX intermittence-aware prefetching (Fig. 20). */
    bool enablePrefetch = false;

    /** Disable the power subsystem entirely (tests; ideal phase 1). */
    bool infiniteEnergy = false;

    /**
     * Section VII-A: atomic peripheral/I/O regions. When
     * ioRegionInterval > 0, every that-many committed instructions the
     * program enters an atomic region of ioRegionLength instructions:
     * an extra checkpoint (registers + dirty blocks) is taken at the
     * region entry, JIT checkpointing is disabled inside, and a power
     * failure inside rolls back to the region start and re-executes.
     */
    std::uint64_t ioRegionInterval = 0;

    /** Length of each atomic region in committed instructions. */
    std::uint64_t ioRegionLength = 200;

    OracleMode oracle = OracleMode::Off;
    /** Phase-1 log for OracleMode::Replay (owned by the caller). */
    const OracleLog *oracleLog = nullptr;

    /**
     * Per-run verbosity: emit inform() status from this run. Replaces
     * the global informEnabled flag for code running under the
     * parallel runner (the global remains as a deprecated master
     * switch; output appears only when both are on).
     */
    bool verbose = false;

    /** One-line description for reports. */
    std::string describe() const;

    /**
     * Canonical serialization for hashing/caching: every
     * simulation-relevant field as one `key=value` line, in the
     * order of the field list in sim_config.cc, with doubles printed
     * round-trip exactly (%.17g) and enums by their name-table
     * names. Two configs produce the same key iff a Simulator would
     * behave identically under them. Excluded by design: `verbose`
     * (output only) and `oracleLog` (runtime pointer; cacheable jobs
     * carry their oracle phase in the runner's job-kind tag instead).
     */
    std::string canonicalKey() const;

    /**
     * Inverse of canonicalKey(): rebuild @p out from canonical-key
     * text. The round-trip law
     *
     *     parse(c.canonicalKey()).canonicalKey() == c.canonicalKey()
     *
     * is checked on every call, so a key this build cannot reproduce
     * exactly (unknown or missing line, non-canonical spelling) is
     * Malformed. A trace workload's file must exist locally and match
     * the key's `workload.trace_hash` line (TraceMismatch otherwise);
     * an alias named by the key is registered from its
     * `workload.trace_path` line when needed. On failure the
     * offending line is described in @p error.
     */
    static ParseStatus parse(std::string_view text, SimConfig &out,
                             std::string &error);
};

/**
 * Apply a shared-L2 level spec, the axis grammar of
 * `kagura_sweep grid --l2` and `kagura_sim --l2`:
 *
 *     none | SIZExWAYS[:GOVERNOR[+kagura]]
 *
 * e.g. "1024x4", "1024x4:acc", "1024x4:acc+kagura". "none" keeps the
 * config single-level. Returns false (and describes the problem in
 * @p error) on a malformed spec; callers fail typed, never fall back
 * silently.
 */
bool applyL2Spec(std::string_view spec, SimConfig &cfg,
                 std::string &error);

} // namespace kagura

#endif // KAGURA_SIM_SIM_CONFIG_HH
