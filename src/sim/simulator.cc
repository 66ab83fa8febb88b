#include "sim/simulator.hh"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "cache/acc.hh"
#include "common/logging.hh"
#include "compress/compressor.hh"
#include "core/workload.hh"
#include "metrics/registry.hh"

namespace kagura
{

Simulator::Simulator(const SimConfig &config) : cfg(config)
{
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
        sharedHarvest(cfg.trace, cfg.traceIntervals, cfg.traceSeed,
                      cfg.traceScale, cfg.energy.traceInterval),
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
        // still holds comfortable margin above the checkpoint level
        // (the voltage cut point as an energy, computed once).
        const ZeptoJoules gate = meter->capacitor().energyAt(
            cfg.capacitor.vCheckpoint +
            0.4 * (cfg.capacitor.vRestore - cfg.capacitor.vCheckpoint));
        prefetcher = std::make_unique<Prefetcher>(
            cfg.dcache.blockSize, [m = meter.get(), gate]() {
                return m->infiniteEnergy() || m->stored() > gate;
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

    // Every per-event cost in zeptojoules, converted once: a step's
    // draws are then integer multiples of its event counts.
    const CompressionCosts ccosts =
        comp ? comp->costs() : CompressionCosts{};
    const NvmParams &nvm_p = mem->params();
    const ZeptoJoules icache_access =
        picoToZepto(cfg.energy.cacheAccessEnergy(cfg.icache.sizeBytes));
    const ZeptoJoules dcache_access =
        picoToZepto(cfg.energy.cacheAccessEnergy(cfg.dcache.sizeBytes));
    // nextLevelAccesses is zero whenever the next level is the NVM
    // terminal, so single-level runs never draw this.
    const ZeptoJoules l2cache_access =
        cfg.enableL2
            ? picoToZepto(cfg.energy.cacheAccessEnergy(cfg.l2.sizeBytes))
            : 0;
    const ZeptoJoules compress = picoToZepto(ccosts.compressEnergy);
    const ZeptoJoules compaction = picoToZepto(cfg.energy.compactionEnergy);
    const ZeptoJoules decompress = picoToZepto(ccosts.decompressEnergy);
    const ZeptoJoules nvm_read = picoToZepto(nvm_p.readEnergy);
    const ZeptoJoules nvm_write = picoToZepto(nvm_p.writeEnergy);

    // The voltage monitor that trips a JIT checkpoint (Section
    // VIII-H2); Kagura's voltage trigger extends it on other designs.
    // Both are paid per committed instruction, with the pipeline.
    const bool pays_monitor = ehs->jitCheckpoints();
    const bool voltage_trigger =
        cfg.kagura.trigger == TriggerKind::Voltage;
    const bool pays_extended_monitor =
        cfg.enableKagura && voltage_trigger && !pays_monitor;
    const ZeptoJoules per_instruction =
        picoToZepto(cfg.energy.corePerInstr) +
        (pays_monitor ? picoToZepto(cfg.energy.monitorSample) : 0) +
        (pays_extended_monitor
             ? picoToZepto(cfg.energy.extendedMonitorSample)
             : 0);

    // Kagura's voltage trigger, as the stored energy at its cut point
    // (both controllers share the Kagura configuration).
    const bool samples_voltage =
        voltage_trigger && (kaguraCtl || l2KaguraCtl);
    const ZeptoJoules trigger_level = meter->capacitor().energyAt(
        KaguraController::triggerVoltage(cfg.kagura,
                                         cfg.capacitor.vCheckpoint,
                                         cfg.capacitor.vRestore));

    const auto n = [](auto count) {
        return static_cast<ZeptoJoules>(count);
    };
    std::uint64_t idx = 0;
    while (idx < ops.size()) {
        const MicroOp &op = ops[idx];
        const StepResult sr = core->step(op, meter->wall());

        // --- dynamic energy for this step -------------------------------
        hier::EventCounts ev = sr.icache;
        ev += sr.dcache;
        EnergyLedger draws;
        draws.add(EnergyCategory::CacheOther,
                  n(sr.icacheArrayAccesses) * icache_access +
                      n(sr.isMem) * dcache_access +
                      n(ev.nextLevelAccesses) * l2cache_access);
        draws.add(EnergyCategory::Compress,
                  n(ev.compressions) * compress +
                      n(ev.compactions) * compaction);
        draws.add(EnergyCategory::Decompress,
                  n(ev.decompressions) * decompress);
        draws.add(EnergyCategory::Memory, n(ev.nvmBlockReads) * nvm_read +
                                              n(ev.nvmBlockWrites) * nvm_write);
        draws.add(EnergyCategory::Others, n(sr.instructions) * per_instruction);
        meter->spendEach(draws);

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
        if (samples_voltage && meter->stored() <= trigger_level) {
            if (kaguraCtl)
                kaguraCtl->onVoltageTrigger();
            if (l2KaguraCtl)
                l2KaguraCtl->onVoltageTrigger();
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
    result.unfundedZj = meter->unfunded();
    result.spilledZj = meter->spilled();
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

    runSeconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - run_start)
                     .count();
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

metrics::MetricSet
Simulator::metricSet() const
{
    if (runSeconds < 0.0)
        panic("metricSet() needs a finished run()");
    metrics::MetricSet set;

    // Replacement telemetry lives in the policy objects (per-policy
    // eviction/size histograms), not in CacheStats. The baseline tag
    // layout keeps its counters at zero by contract, so it records
    // nothing.
    iCache->replPolicy().recordMetrics(set, "sim/icache/repl");
    dCache->replPolicy().recordMetrics(set, "sim/dcache/repl");
    if (l2Cache)
        l2Cache->replPolicy().recordMetrics(set, "sim/l2/repl");
    const auto recordTags = [&set](std::string_view prefix,
                                   const tags::TagLayoutStats &stats) {
        if (anyNonzero(stats))
            metrics::recordFields(set, prefix, stats);
    };
    recordTags("sim/icache/tags", result.icacheTags);
    recordTags("sim/dcache/tags", result.dcacheTags);
    recordTags("sim/l2/tags", result.l2cacheTags);

    // The finished SimResult: counters, gauges, the Fig. 12 per-cycle
    // histogram, cache/ledger breakdowns.
    set.labels()["workload"] = result.workload;
    set.labels()["config"] = cfg.describe();

    set.counter("sim/instructions", result.committedInstructions);
    set.counter("sim/loads", result.loads);
    set.counter("sim/stores", result.stores);
    set.counter("sim/power_failures", result.powerFailures);
    set.gauge("sim/wall_cycles", static_cast<double>(result.wallCycles));
    set.gauge("sim/active_cycles",
              static_cast<double>(result.activeCycles));
    set.gauge("sim/instructions_per_cycle", result.instructionsPerCycle());
    if (result.oracleVetoes)
        set.counter("sim/oracle_vetoes", result.oracleVetoes);
    if (result.replOptAccesses) {
        set.counter("sim/repl_opt_accesses", result.replOptAccesses);
        set.counter("sim/repl_opt_hits", result.replOptHits);
        set.gauge("sim/repl_opt_hit_rate", result.replOptHitRate());
    }

    // Perf trajectory: how committed work distributes over the power
    // cycles the run survived (Fig. 12-style shape, bucketed).
    std::vector<double> per_cycle;
    per_cycle.reserve(result.cycles.size());
    for (const PowerCycleRecord &rec : result.cycles)
        per_cycle.push_back(static_cast<double>(rec.instructions));
    set.histogram("sim/cycle_instructions",
                  {10.0, 100.0, 1000.0, 10000.0, 100000.0}, per_cycle);
    set.histogram("sim/run_seconds",
                  {0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
                   30.0, 60.0, 120.0},
                  {&runSeconds, 1}, metrics::RecordKind::Timer);

    metrics::recordFields(set, "sim/icache", result.icache);
    metrics::recordFields(set, "sim/dcache", result.dcache);
    if (cfg.enableL2)
        metrics::recordFields(set, "sim/l2", result.l2cache);
    result.ledger.recordMetrics(set, "sim/energy");

    // The Kagura controllers, each under its own prefix so the two
    // levels' stats never collide.
    if (kaguraCtl)
        metrics::recordFields(set, "sim/kagura", kaguraCtl->stats());
    if (l2KaguraCtl)
        metrics::recordFields(set, "sim/l2/kagura",
                              l2KaguraCtl->stats());

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

    // Recovery counters (sim/ehs/...): the machine's rollback count,
    // then the design's own.
    if (psm->reExecutedOps())
        set.counter("sim/ehs/reexecuted_ops", psm->reExecutedOps());
    ehs->recordMetrics(set);
    return set;
}

} // namespace kagura
