/**
 * @file
 * What one simulation run produces: the per-power-cycle records
 * (Figs. 12, 13-bottom, 14) and the aggregate SimResult. Split from
 * the simulator so result consumers (runner codec, reports, metrics)
 * need not see the simulation machinery.
 *
 * Each field here and in the nested stats structs is declared once: a
 * member plus its row in the struct's fields() (common/fields.hh),
 * which the codec, the JSON report and the metric export all walk.
 */

#ifndef KAGURA_SIM_SIM_RESULT_HH
#define KAGURA_SIM_SIM_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/fields.hh"
#include "energy/ledger.hh"
#include "kagura/kagura.hh"
#include "kagura/oracle.hh"

namespace kagura
{

/** Per-power-cycle record (Figs. 12, 13-bottom, 14). */
struct PowerCycleRecord
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Cycles activeCycles = 0;

    /** The field list (common/fields.hh), in codec order. */
    static constexpr auto
    fields()
    {
        return std::tuple{
            Member{"instructions", &PowerCycleRecord::instructions},
            Member{"loads", &PowerCycleRecord::loads},
            Member{"stores", &PowerCycleRecord::stores},
            Member{"active_cycles", &PowerCycleRecord::activeCycles},
        };
    }

    /** Cycles-per-instruction within the cycle. */
    double
    cpi() const
    {
        return instructions ? static_cast<double>(activeCycles) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/** Everything one run produced. */
struct SimResult
{
    std::string workload;

    /** Wall-clock cycles, including recharge (the speedup metric). */
    Cycles wallCycles = 0;

    /** Cycles the core was actually executing. */
    Cycles activeCycles = 0;

    std::uint64_t committedInstructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    /** Completed power cycles (= number of power failures). */
    std::uint64_t powerFailures = 0;

    /** Per-cycle records, in order (the final partial cycle included). */
    std::vector<PowerCycleRecord> cycles;

    CacheStats icache;
    CacheStats dcache;
    EnergyLedger ledger;

    KaguraStats kagura;
    std::uint64_t oracleVetoes = 0;

    /**
     * Size-aware OPTgen upper bound (ReplKind::SizeOptgen only),
     * summed over both caches: demand accesses the offline model saw
     * and the hits an optimal replacement schedule could have
     * attained. Zero for online policies.
     */
    std::uint64_t replOptAccesses = 0;
    std::uint64_t replOptHits = 0;

    /**
     * Tag-layout telemetry (src/tags). All-zero for the baseline
     * layout, whose counters live in CacheStats already; the runner
     * codec only encodes these when any counter is nonzero, keeping
     * pre-subsystem encodings byte-identical.
     */
    tags::TagLayoutStats icacheTags;
    tags::TagLayoutStats dcacheTags;

    /**
     * Shared-L2 telemetry (SimConfig::enableL2 only). All-zero for
     * single-level configs; the runner codec encodes them in their own
     * trailing section only when some counter is nonzero, keeping
     * pre-hierarchy encodings byte-identical.
     */
    CacheStats l2cache;
    tags::TagLayoutStats l2cacheTags;

    /** Attainable hit rate of the offline replacement bound. */
    double
    replOptHitRate() const
    {
        return replOptAccesses ? static_cast<double>(replOptHits) /
                                     static_cast<double>(replOptAccesses)
                               : 0.0;
    }

    /** Phase-1 oracle log (OracleMode::Record only). */
    OracleLog oracle;

    /** Average committed instructions per completed power cycle. */
    double
    instructionsPerCycle() const
    {
        if (powerFailures == 0)
            return static_cast<double>(committedInstructions);
        double sum = 0.0;
        std::uint64_t n = 0;
        for (const PowerCycleRecord &rec : cycles) {
            if (n == powerFailures)
                break;
            sum += static_cast<double>(rec.instructions);
            ++n;
        }
        return n ? sum / static_cast<double>(n) : 0.0;
    }

    /** Total compressions across both caches. */
    std::uint64_t
    compressions() const
    {
        return icache.compressions + dcache.compressions;
    }

    /**
     * The field list (common/fields.hh), in byte order: the body in
     * row order, then each optional section in Section order.
     */
    static constexpr auto
    fields()
    {
        return std::tuple{
            Member{"workload", &SimResult::workload},
            Member{"wall_cycles", &SimResult::wallCycles},
            Member{"active_cycles", &SimResult::activeCycles},
            Member{"committed_instructions",
                   &SimResult::committedInstructions},
            Member{"loads", &SimResult::loads},
            Member{"stores", &SimResult::stores},
            Member{"power_failures", &SimResult::powerFailures},
            Member{"cycles", &SimResult::cycles},
            Member{"icache", &SimResult::icache},
            Member{"dcache", &SimResult::dcache},
            Member{"energy_pj", &SimResult::ledger},
            Member{"kagura", &SimResult::kagura},
            Member{"oracle_vetoes", &SimResult::oracleVetoes},
            Member{"oracle", &SimResult::oracle},
            Member{"repl_opt_accesses", &SimResult::replOptAccesses,
                   Section::Optgen},
            Member{"repl_opt_hits", &SimResult::replOptHits, Section::Optgen},
            Member{"icache_tags", &SimResult::icacheTags, Section::TagStats},
            Member{"dcache_tags", &SimResult::dcacheTags, Section::TagStats},
            Member{"l2", &SimResult::l2cache, Section::L2Stats},
            Member{"l2_tags", &SimResult::l2cacheTags, Section::L2Stats},
        };
    }
};

} // namespace kagura

#endif // KAGURA_SIM_SIM_RESULT_HH
