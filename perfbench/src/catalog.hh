/**
 * @file
 * Every metric the benchmark reports, with its unit. BENCHMARK.json
 * declares the same names (a test keeps the two in step); a run prints
 * exactly the end-to-end set untraced and the per-layer set traced.
 */

#ifndef PERFBENCH_CATALOG_HH
#define PERFBENCH_CATALOG_HH

namespace perfbench
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Measured with tracing off, on every workload. */
inline constexpr MetricDef endToEndMetrics[] = {
    {"sweep_wall_s", "s"},
    {"sim_minst_per_s", "Minst/s"},
    {"warm_wall_s", "s"},
    {"warm_hit_us_p50", "us"},
    {"warm_hit_us_p99", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Measured by the traced run's per-layer replays. */
inline constexpr MetricDef perLayerMetrics[] = {
    {"core.gen_s", "s"},
    {"core.gen_mops_per_s", "Mop/s"},
    {"core.step_ns", "ns"},
    {"mem.nvm_fetch_ns", "ns"},
    {"sim.construct_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.minst_per_s.base", "Minst/s"},
    {"sim.minst_per_s.acc", "Minst/s"},
    {"sim.minst_per_s.kagura", "Minst/s"},
    {"sim.minst_per_s.ideal", "Minst/s"},
    {"energy.trace_gen_ms", "ms"},
    {"energy.meter_ns_per_step", "ns"},
    {"cache.access_ns.plain", "ns"},
    {"cache.access_ns.acc", "ns"},
    {"cache.hit_rate", "ratio"},
    {"cache.probes_per_access", "count"},
    {"compress.sizebits_ns.bdi", "ns"},
    {"compress.ratio.bdi", "ratio"},
    {"tags.access_ns.superblock", "ns"},
    {"tags.access_ns.signature", "ns"},
    {"tags.false_positive_rate.signature", "ratio"},
    {"repl.access_ns.camp", "ns"},
    {"repl.access_ns.crrip", "ns"},
    {"hier.l1_access_ns.l2", "ns"},
    {"ehs.run_ms.nvsram", "ms"},
    {"ehs.run_ms.nvmr", "ms"},
    {"ehs.run_ms.sweepcache", "ms"},
    {"ehs.run_ms.taskbased", "ms"},
    {"ehs.run_ms.specpersist", "ms"},
    {"ehs.reexec_share.sweepcache", "ratio"},
    {"ehs.reexec_share.taskbased", "ratio"},
    {"ehs.reexec_share.specpersist", "ratio"},
    {"runner.key_us", "us"},
    {"runner.lookup_us", "us"},
    {"runner.decode_us", "us"},
    {"runner.encode_us", "us"},
    {"runner.store_us", "us"},
    {"runner.entry_kb", "KiB"},
    {"runner.idle_share", "ratio"},
    {"runner.hit_rate", "ratio"},
    {"sim.kagura_speedup_pct", "%"},
    {"sim.acc_speedup_pct", "%"},
    {"sim.power_failures", "count"},
};

} // namespace perfbench

#endif // PERFBENCH_CATALOG_HH
