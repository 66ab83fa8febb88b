#include "sim/simulator.hh"

#include <chrono>

#include "common/logging.hh"
#include "compress/compressor.hh"
#include "core/workload.hh"
#include "metrics/registry.hh"

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

    // Components, attached in the canonical order (the determinism
    // contract -- docs/ARCHITECTURE.md, "Component model").
    telemetry = std::make_unique<TelemetryComponent>(cfg, result);
    bus.attach(*telemetry);

    const bool vol_trigger =
        cfg.enableKagura && cfg.kagura.trigger == TriggerKind::Voltage;
    if (kaguraCtl) {
        kaguraComp = std::make_unique<KaguraComponent>(
            *kaguraCtl, *meter, cfg.capacitor, vol_trigger);
        bus.attach(*kaguraComp);
    }
    if (l2KaguraCtl) {
        const bool l2_vol_trigger =
            cfg.kagura.trigger == TriggerKind::Voltage;
        l2KaguraComp = std::make_unique<KaguraComponent>(
            *l2KaguraCtl, *meter, cfg.capacitor, l2_vol_trigger,
            "sim/l2/kagura");
        bus.attach(*l2KaguraComp);
    }

    compStack = std::make_unique<CompressionStackComponent>(
        ichain, dchain, comp.get(),
        cfg.enableL2 ? &l2chain : nullptr);
    bus.attach(*compStack);

    if (cfg.enableDecay) {
        decayComp = std::make_unique<DecayComponent>(
            cfg.decay, *dCache, l2Cache.get());
        bus.attach(*decayComp);
    }
    if (cfg.enablePrefetch) {
        prefetchComp =
            std::make_unique<PrefetchComponent>(cfg, *meter, *dCache);
        bus.attach(*prefetchComp);
    }

    ehsComp = std::make_unique<EhsComponent>(cfg.ehs);
    bus.attach(*ehsComp);

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
    regWords = ehsComp->design().checkpointRegisterWords(reg_budget);

    psm = std::make_unique<PowerStateMachine>(
        cfg, *meter, *iCache, *dCache, *core, ehsComp->design(), bus,
        result, mem->params(),
        comp ? comp->costs() : CompressionCosts{}, comp != nullptr,
        regWords, l2Cache.get());
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

    const bool pays_monitor = ehsComp->design().hasVoltageMonitor();
    const bool pays_extended_monitor =
        cfg.enableKagura &&
        cfg.kagura.trigger == TriggerKind::Voltage && !pays_monitor;

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

        // --- observer bus -----------------------------------------------
        const SimStepContext step_ctx{op, sr, idx};
        if (bus.wantsFill() && nvm_reads > 0)
            bus.fill(step_ctx);
        if (bus.wantsEvict() &&
            sr.icache.evictions + sr.dcache.evictions > 0)
            bus.evict(step_ctx);
        if (sr.isMem)
            bus.memOp(step_ctx);
        bus.step(step_ctx);

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

    // Replacement telemetry lives in the policy objects (per-policy
    // eviction/size histograms), not in CacheStats, so it is exported
    // here rather than through the TelemetryComponent.
    iCache->replPolicy().recordMetrics(*mset, "sim/icache/repl");
    dCache->replPolicy().recordMetrics(*mset, "sim/dcache/repl");

    // Same story for tag-layout telemetry (a no-op for the baseline
    // layout, which keeps its counters at zero by contract).
    iCache->tagLayout().recordMetrics(*mset, "sim/icache/tags");
    dCache->tagLayout().recordMetrics(*mset, "sim/dcache/tags");
    if (l2Cache) {
        l2Cache->replPolicy().recordMetrics(*mset, "sim/l2/repl");
        l2Cache->tagLayout().recordMetrics(*mset, "sim/l2/tags");
    }

    bus.recordMetrics(*mset);
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

} // namespace kagura
