/**
 * @file
 * Experiment runner: sweeps a configuration across the 20-application
 * suite, computes speedups against a baseline, and provides the
 * two-phase ideal-oracle methodology of Section VIII-C. This is the
 * layer every bench sits on.
 *
 * Runs are repeated over several ambient-trace seeds and the metrics
 * averaged pairwise (same seed in numerator and denominator): with a
 * bursty RF source, where the *last* recharge lands in the trace can
 * swing a single short run's wall time by several percent, and the
 * paired multi-seed mean removes exactly that alignment noise. The
 * paper's billion-instruction gem5 runs average it implicitly.
 */

#ifndef KAGURA_SIM_EXPERIMENT_HH
#define KAGURA_SIM_EXPERIMENT_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace kagura
{

/** Per-application outcome of one configuration: one run per seed. */
struct AppResult
{
    std::string app;
    std::vector<SimResult> runs;

    /** The first run (representative for counters/stat inspection). */
    const SimResult &primary() const { return runs.front(); }
};

/** A configuration evaluated over the whole suite. */
struct SuiteResult
{
    std::string label;
    std::vector<AppResult> apps;

    /** Find an app's results (fatal if missing). */
    const AppResult &forApp(const std::string &app) const;
};

/**
 * Number of trace seeds each configuration is averaged over.
 * Initialised from the KAGURA_REPEATS environment variable when set
 * (smoke sweeps export KAGURA_REPEATS=1); read when a suite's job
 * list is built, on the calling thread only.
 */
extern unsigned suiteRepeats;

/** The i-th trace seed used by the suite runner. */
std::uint64_t suiteSeed(unsigned index);

/** Canonical baseline config: Table I, no compression. */
SimConfig baselineConfig(const std::string &workload);

/** Baseline + ACC-governed compression (BDI by default). */
SimConfig accConfig(const std::string &workload);

/** Baseline + ACC + Kagura at the default design point. */
SimConfig accKaguraConfig(const std::string &workload);

/**
 * The application list suite sweeps run over by default: the paper's
 * 20-app suite unless a harness narrowed or replaced it via
 * setSuiteApps() (bench --apps / KAGURA_APPS). Read on the
 * submitting thread when a suite's job list is built.
 */
const std::vector<std::string> &suiteApps();

/**
 * Replace the default suite list (every name must satisfy
 * workloadExists(); trace workloads are allowed). An empty vector
 * restores the paper suite. Call from the harness before sweeps
 * start, not concurrently with one.
 */
void setSuiteApps(std::vector<std::string> apps);

/**
 * Run @p make(app) for every app in @p apps (default: suiteApps()),
 * once per trace seed, and collect the results. Jobs execute on the
 * src/runner subsystem: in parallel across runner::jobCount()
 * workers and memoised in the persistent result cache, with the
 * SuiteResult bit-identical at any worker count.
 */
SuiteResult
runSuite(const std::string &label,
         const std::function<SimConfig(const std::string &)> &make,
         const std::vector<std::string> &apps = suiteApps());

/**
 * Ideal-oracle runs for one app config (two-phase, once per seed):
 * phase 1 executes @p base with recording; phase 2 replays against
 * the log. When @p intermittence_aware is false, phase 1 runs with
 * infinite energy (the oracle knows reuse but not outages -- "ideal
 * ACC"); when true, phase 1 sees the same power trace ("ideal
 * Kagura").
 */
std::vector<SimResult> runIdeal(const SimConfig &base,
                                bool intermittence_aware);

/**
 * One ideal-oracle two-phase run (uses @p base's trace seed). A run
 * may pass @p phase1: when it holds a log that log stands in for
 * phase 1, otherwise the run records phase 1 into it. Only pass a
 * slot filled by a run with the same phase 1: for an unaware run, one
 * with the same unawarePhase1Key(); for an aware run, an aware run or
 * a plain Simulator run with OracleMode::Record of the same @p base.
 */
SimResult runIdealOnce(const SimConfig &base, bool intermittence_aware,
                       std::optional<OracleLog> *phase1 = nullptr);

/**
 * Key under which intermittence-unaware ideal runs of @p base may
 * share phase 1: the phase-1 config's canonicalKey() with the power
 * trace (kind, seed, scale, intervals) reset to its defaults. At
 * infinite energy the trace decides nothing, so runs that differ only
 * there record the same log.
 */
std::string unawarePhase1Key(const SimConfig &base);

/**
 * Suite-runner convention for ideal configs: a config returned by the
 * make() callback with oracle == OracleMode::Record is executed as an
 * intermittence-aware ideal (phase 1 under the real trace); with
 * oracle == OracleMode::Replay as the intermittence-unaware ideal
 * (phase 1 under infinite energy). OracleMode::Off runs normally.
 */

/** Speedup of one run over one baseline run: wall ratio - 1, in %. */
double speedupPct(const SimResult &config, const SimResult &baseline);

/** Total-energy change of one run vs a baseline run, in %. */
double energyDeltaPct(const SimResult &config, const SimResult &baseline);

/** Seed-paired mean speedup for one app, in %. */
double speedupPct(const AppResult &config, const AppResult &baseline);

/** Seed-paired mean energy delta for one app, in %. */
double energyDeltaPct(const AppResult &config, const AppResult &baseline);

/** Arithmetic mean of per-app speedups between two suites, in %. */
double meanSpeedupPct(const SuiteResult &config,
                      const SuiteResult &baseline);

/** Arithmetic mean of per-app energy deltas between two suites, in %. */
double meanEnergyDeltaPct(const SuiteResult &config,
                          const SuiteResult &baseline);

} // namespace kagura

#endif // KAGURA_SIM_EXPERIMENT_HH
