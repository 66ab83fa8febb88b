/**
 * @file
 * The kagura_bench harness: the bench registry and its command-line
 * driver, plus the shared helpers the benches build on (suite
 * comparison tables, canonical configuration builders). Every bench
 * prints (a) the paper's reported numbers for its experiment and
 * (b) our measured reproduction, in the same rows/series layout as
 * the paper.
 */

#ifndef KAGURA_BENCH_BENCH_COMMON_HH
#define KAGURA_BENCH_BENCH_COMMON_HH

#include <initializer_list>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/experiment.hh"

namespace kagura
{
namespace bench
{

/** One registered bench: its CLI name, banner text and body. */
struct BenchEntry
{
    const char *name;
    const char *experimentId;
    const char *title;
    const char *paperSummary;
    /** Prints the bench's tables; the return value is its exit status. */
    int (*body)();
};

/** Every bench linked into this binary, in registration order. */
std::vector<BenchEntry> &registry();

/** Appends one entry to registry() during static initialisation. */
struct Registrar
{
    explicit Registrar(const BenchEntry &entry)
    {
        registry().push_back(entry);
    }
};

/**
 * Define and register a bench:
 *
 *   KAGURA_BENCH(fig13_main_speedup, "Fig. 13", "Main speedup result",
 *                "<what the paper reports>")
 *   {
 *       ...print tables...
 *       return 0;
 *   }
 *
 * The driver prints the banner before the body runs and the body's
 * [runner] telemetry line after it.
 */
#define KAGURA_BENCH(name, id, title, summary)                            \
    static int kaguraBenchBody_##name();                                  \
    static const ::kagura::bench::Registrar kaguraBenchRegistrar_##name{  \
        {#name, id, title, summary, &kaguraBenchBody_##name}};            \
    static int kaguraBenchBody_##name()

/**
 * The kagura_bench command line over @p entries:
 *
 *   kagura_bench [flags] NAME...      run the named benches in order
 *   kagura_bench [flags] all          every bench, fig* tab* abl* ext*
 *   kagura_bench --list               one "NAME  ID -- TITLE" line each
 *
 * Flags (any position):
 *
 *   --jobs N      worker threads (default: KAGURA_JOBS env, else
 *                 hardware_concurrency)
 *   --repeats N   trace seeds per configuration (default: the
 *                 KAGURA_REPEATS env, else 5)
 *   --no-cache    skip the persistent result cache for this run
 *   --metrics-out PATH
 *                 one kagura.metrics/v1 export for the whole run
 *                 (also KAGURA_METRICS_OUT); every record carries
 *                 the bench label of the bench that emitted it
 *   --metrics-timeseries
 *                 per-power-cycle series in that export
 *   --register-trace NAME=FILE
 *                 register a kagura.trace/v1 file as workload NAME
 *   --apps A,B    replace the default suite list (also the
 *                 KAGURA_APPS env); every name is validated against
 *                 the known workloads -- kernels and registered
 *                 traces -- and an unknown name is a fatal error
 *                 listing the valid choices, never a silent fallback
 *   --summary PATH
 *                 with `all`: write the kagura.bench/v1 sweep summary
 *                 (pr from the BENCH_PR env)
 *
 * Each bench prints its banner, its tables, then its own [runner]
 * line (the runner counters it moved, plus its wall time). Every
 * name is checked before anything runs; an unknown one is fatal and
 * lists the valid names. Returns 1 when any bench returned nonzero
 * (the rest still run), else 0.
 */
int runBenches(int argc, char **argv, std::vector<BenchEntry> entries);

/**
 * Split a comma-separated workload selection and validate every name
 * via workloadExists(). Fatal on an empty selection or an unknown
 * name, with the full known-workload list in the message (the
 * --apps / KAGURA_APPS parser; exposed for tests).
 */
std::vector<std::string> parseAppList(const std::string &csv);

/**
 * Print a per-app comparison table: one row per application, one
 * column per configuration, cells = speedup (%) over the baseline
 * suite, plus an average row. The "ACC+Kagura" column's
 * speedupGeomean() is noted for the sweep summary (fig13's is its
 * fig13_speedup_geomean).
 */
void printSpeedupTable(const SuiteResult &baseline,
                       const std::vector<SuiteResult> &configs);

/** Per-app + average energy-delta (%) table against the baseline. */
void printEnergyTable(const SuiteResult &baseline,
                      const std::vector<SuiteResult> &configs);

/**
 * Emit one per-app table cell as a labelled gauge record (no-op
 * without a metrics sink). Benches that lay out their own tables use
 * this to still land in the metrics export.
 */
void emitCell(const char *name, const std::string &app,
              const std::string &config, double value);

/**
 * Geometric-mean wall-time speedup ratio of @p cfg over @p baseline
 * across the suite (1.0 = parity), from the seed-paired per-app mean
 * speedups the tables print.
 */
double speedupGeomean(const SuiteResult &cfg, const SuiteResult &baseline);

/**
 * A reduced application list for the expensive multi-configuration
 * sweeps (sensitivity studies); spans compressible/incompressible and
 * memory-/compute-bound corners of the suite.
 */
const std::vector<std::string> &sweepApps();

/** The @p members of every run of @p suite, summed (addFields). */
template <typename Stats>
Stats
suiteSum(const SuiteResult &suite,
         std::initializer_list<Stats SimResult::*> members)
{
    Stats total;
    for (const AppResult &app : suite.apps)
        for (const SimResult &run : app.runs)
            for (Stats SimResult::*member : members)
                addFields(total, run.*member);
    return total;
}

} // namespace bench
} // namespace kagura

#endif // KAGURA_BENCH_BENCH_COMMON_HH
