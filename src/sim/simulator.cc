#include "sim/simulator.hh"

#include <chrono>
#include <string>
#include <utility>

#include "cache/acc.hh"
#include "common/logging.hh"
#include "compress/compressor.hh"
#include "core/workload.hh"
#include "metrics/registry.hh"
#include "metrics/sink.hh"

namespace kagura
{

Simulator::Simulator(const SimConfig &config) : cfg(config)
{
    mset = std::make_unique<metrics::MetricSet>();
    mem = std::make_unique<Nvm>(cfg.nvmType, cfg.nvmBytes);

    // Compression stack: algorithm + per-cache governor chains. Any
    // level wanting compression brings the (shared) algorithm in.
    if (cfg.governor != GovernorKind::None ||
        (cfg.enableL2 && cfg.l2Governor != GovernorKind::None))
        comp = makeCompressor(cfg.compressor);

    if (cfg.enableKagura) {
        if (cfg.governor == GovernorKind::None)
            fatal("Kagura requires a compression governor to wrap");
        // Kagura's core-level registers; the per-cache gates consult
        // its mode and feed its R_evict counter.
        kaguraCtl = std::make_unique<KaguraController>(cfg.kagura,
                                                       nullptr);
    }
    if (cfg.oracle == OracleMode::Replay && !cfg.oracleLog)
        fatal("OracleMode::Replay needs a phase-1 log");

    GovernorChainSpec chain_spec;
    chain_spec.governor = cfg.governor;
    chain_spec.oracle = cfg.oracle;
    chain_spec.kagura = kaguraCtl.get();
    chain_spec.oracleLog = cfg.oracleLog;
    ichain = makeGovernorChain(chain_spec);
    dchain = makeGovernorChain(chain_spec);

    // Optional shared L2 with its own governor chain and (when asked
    // for) its own Kagura controller -- per-level gating means the L2
    // can keep compressing while the L1s have backed off, and vice
    // versa.
    if (cfg.enableL2) {
        if (cfg.l2Kagura) {
            if (cfg.l2Governor == GovernorKind::None)
                fatal("L2 Kagura requires an L2 compression governor "
                      "to wrap");
            l2KaguraCtl = std::make_unique<KaguraController>(
                cfg.kagura, nullptr);
        }
        GovernorChainSpec l2_spec;
        l2_spec.governor = cfg.l2Governor;
        l2_spec.kagura = l2KaguraCtl.get();
        l2chain = makeGovernorChain(l2_spec);
        l2Cache = std::make_unique<Cache>(
            cfg.l2, *mem,
            cfg.l2Governor != GovernorKind::None ? comp.get()
                                                 : nullptr,
            l2chain.head);
        l2Cache->setLevelName("l2");
    }

    hier::MemLevel &l1_next =
        l2Cache ? static_cast<hier::MemLevel &>(*l2Cache)
                : static_cast<hier::MemLevel &>(*mem);
    // Levels compress independently: each gets the algorithm only when
    // its own governor asks for one (an L2-only compressed hierarchy
    // leaves the L1s uncompressed, and vice versa).
    const Compressor *l1_comp =
        cfg.governor != GovernorKind::None ? comp.get() : nullptr;
    iCache = std::make_unique<Cache>(cfg.icache, l1_next, l1_comp,
                                     ichain.head);
    dCache = std::make_unique<Cache>(cfg.dcache, l1_next, l1_comp,
                                     dchain.head);
    core = std::make_unique<Core>(*iCache, *dCache);

    meter = std::make_unique<EnergyMeter>(
        cfg.capacitor, cfg.energy,
        cfg.energy.cacheLeakagePerByte *
            (cfg.icache.sizeBytes + cfg.dcache.sizeBytes +
             (cfg.enableL2 ? cfg.l2.sizeBytes : 0u)),
        mem->params().standbyPower,
        sharedTrace(cfg.trace, cfg.traceIntervals, cfg.traceSeed,
                    cfg.traceScale),
        result.ledger, cfg.infiniteEnergy);

    if (cfg.enableDecay) {
        decay = std::make_unique<DecayController>(cfg.decay);
        dCache->setDecay(decay.get());
        if (l2Cache) {
            l2Decay = std::make_unique<DecayController>(cfg.decay);
            l2Cache->setDecay(l2Decay.get());
        }
    }
    if (cfg.enablePrefetch) {
        // IPEX's intermittence gate: prefetch only while the capacitor
        // still holds comfortable margin above the checkpoint level.
        const double v_gate =
            cfg.capacitor.vCheckpoint +
            0.4 * (cfg.capacitor.vRestore - cfg.capacitor.vCheckpoint);
        prefetcher = std::make_unique<Prefetcher>(
            cfg.dcache.blockSize, [m = meter.get(), v_gate]() {
                return m->infiniteEnergy() || m->voltage() > v_gate;
            });
        dCache->setPrefetcher(prefetcher.get());
    }

    ehs = makeEhs(cfg.ehs);

    // Per-component checkpoint register budget; the design picks the
    // components its commit boundaries persist (ehs/recovery.hh).
    RegisterBudget reg_budget;
    reg_budget.core = Core::checkpointWords;
    if (cfg.governor == GovernorKind::Acc)
        reg_budget.l1Gcp = 2; // one GCP per cache controller
    if (cfg.enableKagura)
        reg_budget.kagura = 6; // five registers + the 2-bit counter
    if (cfg.enableL2 && cfg.l2Governor == GovernorKind::Acc)
        reg_budget.l2Gcp = 1; // the single L2 controller's GCP
    if (cfg.enableL2 && cfg.l2Kagura)
        reg_budget.l2Kagura = 6; // the L2's own Kagura register file

    psm = std::make_unique<PowerStateMachine>(
        cfg, *meter, *iCache, *dCache, *core, *ehs, kaguraCtl.get(),
        l2KaguraCtl.get(), result, mem->params(),
        comp ? comp->costs() : CompressionCosts{}, comp != nullptr,
        ehs->checkpointRegisterWords(reg_budget), l2Cache.get());
}

Simulator::~Simulator() = default;

SimResult
Simulator::run()
{
    const auto run_start = std::chrono::steady_clock::now();
    const Workload &wl = cachedWorkload(cfg.workload);
    result.workload = wl.name();
    wl.applyImage(*mem);

    const auto &ops = wl.ops();
    const CompressionCosts ccosts =
        comp ? comp->costs() : CompressionCosts{};
    const PicoJoules icache_access =
        cfg.energy.cacheAccessEnergy(cfg.icache.sizeBytes);
    const PicoJoules dcache_access =
        cfg.energy.cacheAccessEnergy(cfg.dcache.sizeBytes);
    const PicoJoules l2cache_access =
        cfg.enableL2 ? cfg.energy.cacheAccessEnergy(cfg.l2.sizeBytes)
                     : 0.0;
    const NvmParams &nvm_p = mem->params();

    const bool pays_monitor = ehs->hasVoltageMonitor();
    const bool voltage_trigger =
        cfg.kagura.trigger == TriggerKind::Voltage;
    const bool pays_extended_monitor =
        cfg.enableKagura && voltage_trigger && !pays_monitor;
    const bool samples_voltage =
        voltage_trigger && (kaguraCtl || l2KaguraCtl);

    std::uint64_t idx = 0;
    while (idx < ops.size()) {
        const MicroOp &op = ops[idx];
        const StepResult sr = core->step(op, meter->wall());

        // --- dynamic energy for this step -------------------------------
        const std::uint64_t icache_accesses = sr.icacheArrayAccesses;
        const unsigned compressions =
            sr.icache.compressions + sr.dcache.compressions;
        const unsigned compactions =
            sr.icache.compactions + sr.dcache.compactions;
        const unsigned decompressions =
            sr.icache.decompressions + sr.dcache.decompressions;
        const unsigned nvm_reads =
            sr.icache.nvmBlockReads + sr.dcache.nvmBlockReads;
        const unsigned nvm_writes =
            sr.icache.nvmBlockWrites + sr.dcache.nvmBlockWrites;

        meter->spend(
            EnergyCategory::CacheOther,
            static_cast<double>(icache_accesses) * icache_access +
                (sr.isMem ? dcache_access : 0.0));
        // L2 array energy: one access per block the L1s pushed down or
        // pulled up. nextLevelAccesses is zero whenever the next level
        // is the NVM terminal, so single-level runs never take this
        // branch (bit-identity).
        const unsigned l2_accesses = sr.icache.nextLevelAccesses +
                                     sr.dcache.nextLevelAccesses;
        if (l2_accesses > 0)
            meter->spend(EnergyCategory::CacheOther,
                         static_cast<double>(l2_accesses) *
                             l2cache_access);
        if (compressions > 0)
            meter->spend(EnergyCategory::Compress,
                         compressions * ccosts.compressEnergy +
                             compactions * cfg.energy.compactionEnergy);
        if (decompressions > 0)
            meter->spend(EnergyCategory::Decompress,
                         decompressions * ccosts.decompressEnergy);
        if (nvm_reads || nvm_writes)
            meter->spend(EnergyCategory::Memory,
                         nvm_reads * nvm_p.readEnergy +
                             nvm_writes * nvm_p.writeEnergy);
        meter->spend(EnergyCategory::Others,
                     static_cast<double>(sr.instructions) *
                         cfg.energy.corePerInstr);
        if (pays_monitor)
            meter->spend(EnergyCategory::Others,
                         static_cast<double>(sr.instructions) *
                             cfg.energy.monitorSample);
        if (pays_extended_monitor)
            meter->spend(EnergyCategory::Others,
                         static_cast<double>(sr.instructions) *
                             cfg.energy.extendedMonitorSample);

        // --- EHS persistence hooks --------------------------------------
        Cycles extra_cycles = 0;
        if (sr.isStore)
            extra_cycles += psm->noteStore(op.addr);
        extra_cycles += psm->noteCommit(sr.instructions, idx + 1);

        psm->updateRegions(sr.instructions, idx + 1);

        // --- Kagura triggers: L1 controller, then L2 ---------------------
        if (sr.isMem) {
            if (kaguraCtl)
                kaguraCtl->onMemOpCommit();
            if (l2KaguraCtl)
                l2KaguraCtl->onMemOpCommit();
        }
        if (samples_voltage) {
            const double volts = meter->voltage();
            if (kaguraCtl)
                kaguraCtl->onVoltageSample(volts,
                                           cfg.capacitor.vCheckpoint,
                                           cfg.capacitor.vRestore);
            if (l2KaguraCtl)
                l2KaguraCtl->onVoltageSample(volts,
                                             cfg.capacitor.vCheckpoint,
                                             cfg.capacitor.vRestore);
        }

        // --- time, leakage, counters ------------------------------------
        const Cycles step_cycles = sr.cycles + extra_cycles;
        meter->chargeStaticPower(step_cycles);
        meter->advanceWall(step_cycles);
        psm->recordStep(sr, step_cycles);
        ++idx;

        // --- power state machine ----------------------------------------
        if (psm->failureImminent())
            idx = psm->powerCycle(idx);
    }

    psm->closeCycle();
    result.wallCycles = meter->wall();
    result.icache = iCache->stats();
    result.dcache = dCache->stats();
    result.icacheTags = iCache->tagStats();
    result.dcacheTags = dCache->tagStats();
    if (const repl::UpperBoundStats *bound =
            iCache->replPolicy().upperBound()) {
        result.replOptAccesses += bound->accesses;
        result.replOptHits += bound->hits;
    }
    if (const repl::UpperBoundStats *bound =
            dCache->replPolicy().upperBound()) {
        result.replOptAccesses += bound->accesses;
        result.replOptHits += bound->hits;
    }
    if (l2Cache) {
        result.l2cache = l2Cache->stats();
        result.l2cacheTags = l2Cache->tagStats();
        if (const repl::UpperBoundStats *bound =
                l2Cache->replPolicy().upperBound()) {
            result.replOptAccesses += bound->accesses;
            result.replOptHits += bound->hits;
        }
    }
    if (kaguraCtl)
        result.kagura = kaguraCtl->stats();
    if (ichain.replayer)
        result.oracleVetoes = ichain.replayer->vetoed();
    if (dchain.replayer)
        result.oracleVetoes += dchain.replayer->vetoed();
    if (ichain.recorder) {
        result.oracle = ichain.recorder->log();
        result.oracle.merge(dchain.recorder->log());
    }

    recordMetrics();
    mset->timer("sim/run_seconds")
        .observe(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - run_start)
                     .count());
    if (cfg.verbose)
        inform("run %s: %llu instrs, %llu wall cycles, %llu power "
               "failures",
               cfg.describe().c_str(),
               static_cast<unsigned long long>(
                   result.committedInstructions),
               static_cast<unsigned long long>(result.wallCycles),
               static_cast<unsigned long long>(result.powerFailures));
    return result;
}

void
Simulator::recordMetrics()
{
    metrics::MetricSet &set = *mset;

    // Replacement and tag-layout telemetry lives in the policy and
    // layout objects (per-policy eviction/size histograms), not in
    // CacheStats. The baseline layout keeps its counters at zero by
    // contract, so it records nothing.
    iCache->replPolicy().recordMetrics(set, "sim/icache/repl");
    dCache->replPolicy().recordMetrics(set, "sim/dcache/repl");
    iCache->tagLayout().recordMetrics(set, "sim/icache/tags");
    dCache->tagLayout().recordMetrics(set, "sim/dcache/tags");
    if (l2Cache) {
        l2Cache->replPolicy().recordMetrics(set, "sim/l2/repl");
        l2Cache->tagLayout().recordMetrics(set, "sim/l2/tags");
    }

    // The finished SimResult: counters, gauges, the Fig. 12 per-cycle
    // histogram, the optional time series, cache/ledger breakdowns.
    set.labels()["workload"] = result.workload;
    set.labels()["config"] = cfg.describe();

    set.counter("sim/instructions").add(result.committedInstructions);
    set.counter("sim/loads").add(result.loads);
    set.counter("sim/stores").add(result.stores);
    set.counter("sim/power_failures").add(result.powerFailures);
    set.gauge("sim/wall_cycles")
        .set(static_cast<double>(result.wallCycles));
    set.gauge("sim/active_cycles")
        .set(static_cast<double>(result.activeCycles));
    set.gauge("sim/instructions_per_cycle")
        .set(result.instructionsPerCycle());
    if (result.oracleVetoes)
        set.counter("sim/oracle_vetoes").add(result.oracleVetoes);
    if (result.replOptAccesses) {
        set.counter("sim/repl_opt_accesses").add(result.replOptAccesses);
        set.counter("sim/repl_opt_hits").add(result.replOptHits);
        set.gauge("sim/repl_opt_hit_rate").set(result.replOptHitRate());
    }

    // Perf trajectory: how committed work distributes over the power
    // cycles the run survived (Fig. 12-style shape, bucketed).
    metrics::FixedHistogram &per_cycle = set.histogram(
        "sim/cycle_instructions",
        {10.0, 100.0, 1000.0, 10000.0, 100000.0});
    for (const PowerCycleRecord &rec : result.cycles)
        per_cycle.observe(static_cast<double>(rec.instructions));

    // Optional per-power-cycle time series (--metrics-timeseries):
    // one gauge record per completed cycle and series, indexed by a
    // cycle_index label so downstream tools can reconstruct the
    // trajectory exactly instead of through histogram buckets.
    if (metrics::timeseriesEnabled() && metrics::defaultSink()) {
        std::size_t index = 0;
        for (const PowerCycleRecord &rec : result.cycles) {
            const auto emit = [&](const char *name, double value) {
                metrics::Record record;
                record.kind = metrics::RecordKind::Gauge;
                record.name = name;
                record.labels = set.labels();
                record.labels["cycle_index"] = std::to_string(index);
                record.value = value;
                metrics::emitRecord(std::move(record));
            };
            emit("sim/cycle/instructions",
                 static_cast<double>(rec.instructions));
            emit("sim/cycle/loads", static_cast<double>(rec.loads));
            emit("sim/cycle/stores", static_cast<double>(rec.stores));
            emit("sim/cycle/active_cycles",
                 static_cast<double>(rec.activeCycles));
            ++index;
        }
    }

    result.icache.recordMetrics(set, "sim/icache");
    result.dcache.recordMetrics(set, "sim/dcache");
    if (cfg.enableL2)
        result.l2cache.recordMetrics(set, "sim/l2");
    result.ledger.recordMetrics(set, "sim/energy");

    // The Kagura controllers, each under its own prefix so the two
    // levels' stats never collide.
    if (kaguraCtl)
        kaguraCtl->stats().recordMetrics(set, "sim/kagura");
    if (l2KaguraCtl)
        l2KaguraCtl->stats().recordMetrics(set, "sim/l2/kagura");

    // The compression stack: per-cache ACC predictors and the
    // algorithm.
    if (ichain.acc)
        ichain.acc->recordMetrics(set, "sim/icache/acc");
    if (dchain.acc)
        dchain.acc->recordMetrics(set, "sim/dcache/acc");
    if (l2chain.acc)
        l2chain.acc->recordMetrics(set, "sim/l2/acc");
    if (comp)
        comp->recordMetrics(set, "sim/compressor");

    // The EHS design's recovery counters (sim/ehs/...).
    ehs->recordMetrics(set);
}

} // namespace kagura
