#include "layers.hh"

#include <filesystem>
#include <memory>

#include "cache/cache.hh"
#include "cache/chain.hh"
#include "compress/compressor.hh"
#include "core/core.hh"
#include "energy/meter.hh"
#include "energy/power_trace.hh"
#include "mem/nvm.hh"
#include "metrics/registry.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/result_codec.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using namespace kagura;

std::vector<ImageBlock>
imageBlocksOf(const Workload &workload)
{
    std::vector<ImageBlock> blocks;
    Addr current = 0;
    for (const auto &[addr, byte] : workload.initialImage()) {
        const Addr base = addr - addr % tableIBlockBytes;
        if (blocks.empty() || base != current) {
            blocks.emplace_back();
            blocks.back().fill(0);
            current = base;
        }
        blocks.back()[addr - base] = byte;
    }
    return blocks;
}

LayerInputs
makeLayerInputs(const JobList &jobs, std::uint64_t seed)
{
    LayerInputs in;
    in.jobs = &jobs;
    for (const std::string &app : jobs.apps) {
        const Workload &wl = cachedWorkload(app);
        in.workloads.push_back(&wl);
        const std::vector<ImageBlock> blocks = imageBlocksOf(wl);
        in.imageBlocks.insert(in.imageBlocks.end(), blocks.begin(),
                              blocks.end());
    }
    for (unsigned i = 0; i < paperSuiteSeeds; ++i)
        in.traceSeeds.push_back(traceSeedFor(seed, i));
    return in;
}

namespace
{

/** Nanoseconds per item; 0 when nothing ran. */
double
nsPer(double seconds, std::uint64_t items)
{
    return items ? seconds * 1e9 / static_cast<double>(items) : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/** Counts sizeBits probes on their way to the wrapped compressor. */
class CountingCompressor final : public Compressor
{
  public:
    explicit CountingCompressor(const Compressor &wrapped) : inner(wrapped)
    {
    }

    using Compressor::compress;
    using Compressor::decompress;

    CompressorKind kind() const override { return inner.kind(); }
    const char *name() const override { return inner.name(); }

    std::uint64_t
    compress(ConstByteSpan block, PayloadBuffer &out) const override
    {
        return inner.compress(block, out);
    }

    std::uint64_t
    sizeBits(ConstByteSpan block) const override
    {
        ++probeCount;
        return inner.sizeBits(block);
    }

    void
    decompress(ConstByteSpan payload, MutByteSpan block) const override
    {
        inner.decompress(payload, block);
    }

    CompressionCosts costs() const override { return inner.costs(); }

    std::uint64_t probes() const { return probeCount; }

  private:
    const Compressor &inner;
    mutable std::uint64_t probeCount = 0;
};

/** What one data-cache replay measured. */
struct CacheReplay
{
    double seconds = 0.0;
    std::uint64_t accesses = 0;
    CacheStats stats;
    tags::TagLayoutStats tagStats;
};

/** How a data-cache replay builds its hierarchy. */
struct CacheSetup
{
    CacheConfig l1{};
    /** Compressor for every compressed level; null = plain caches. */
    const Compressor *comp = nullptr;
    /** Put the 1024x4 ACC-governed L2 behind the L1. */
    bool withL2 = false;
};

/**
 * Drive Cache::access with @p wl's loads and stores, on a fresh NVM
 * holding the workload's image; only the access loop is timed.
 */
void
replayDcache(const Workload &wl, const CacheSetup &setup, CacheReplay &out)
{
    Nvm nvm(NvmType::ReRam, SimConfig{}.nvmBytes);
    wl.applyImage(nvm);

    GovernorChainSpec spec;
    spec.governor = setup.comp ? GovernorKind::Acc : GovernorKind::None;
    GovernorChain l1_chain = makeGovernorChain(spec);
    GovernorChain l2_chain;
    std::unique_ptr<Cache> l2;
    if (setup.withL2) {
        CacheConfig l2_cfg = SimConfig{}.l2;
        l2_cfg.sizeBytes = 1024;
        l2_cfg.ways = 4;
        l2_chain = makeGovernorChain(spec);
        l2 = std::make_unique<Cache>(l2_cfg, nvm, setup.comp,
                                     l2_chain.head);
    }
    hier::MemLevel &next =
        l2 ? static_cast<hier::MemLevel &>(*l2) : nvm;
    Cache dcache(setup.l1, next, setup.comp, l1_chain.head);

    std::uint64_t accesses = 0;
    Cycles now = 0;
    const double start = nowSeconds();
    for (const MicroOp &op : wl.ops()) {
        if (op.type == MicroOp::Type::Alu)
            continue;
        std::uint8_t bytes[8];
        const bool store = op.type == MicroOp::Type::Store;
        for (unsigned i = 0; store && i < op.size; ++i)
            bytes[i] = static_cast<std::uint8_t>(op.value >> (8 * i));
        const AccessOutcome outcome =
            dcache.access(op.addr, store, bytes, op.size, now);
        now += 1 + outcome.latency;
        ++accesses;
    }
    out.seconds += nowSeconds() - start;
    out.accesses += accesses;
    const CacheStats &s = dcache.stats();
    out.stats.accesses += s.accesses;
    out.stats.hits += s.hits;
    out.tagStats.add(dcache.tagStats());
}

/** Replay every app through one cache setup; returns ns per access. */
double
cacheLayer(const LayerInputs &in, SpanRecorder *spans,
           const std::string &name, const CacheSetup &setup,
           CacheReplay *out = nullptr)
{
    SpanScope span(spans, name);
    CacheReplay replay;
    for (const Workload *wl : in.workloads)
        replayDcache(*wl, setup, replay);
    if (out)
        *out = replay;
    return nsPer(replay.seconds, replay.accesses);
}

void
coreLayer(const LayerInputs &in, SpanRecorder *spans, LayerMetrics &out)
{
    {
        SpanScope span(spans, "core.gen");
        double seconds = 0.0;
        std::uint64_t ops = 0;
        for (const std::string &app : in.jobs->apps) {
            SpanScope app_span(spans, "makeWorkload " + app);
            const double start = nowSeconds();
            const Workload wl = makeWorkload(app);
            seconds += nowSeconds() - start;
            ops += wl.ops().size();
        }
        out["core.gen_s"] = seconds;
        out["core.gen_mops_per_s"] =
            static_cast<double>(ops) / 1e6 / seconds;
    }
    {
        SpanScope span(spans, "core.step");
        double seconds = 0.0;
        std::uint64_t steps = 0;
        for (const Workload *wl : in.workloads) {
            Nvm nvm(NvmType::ReRam, SimConfig{}.nvmBytes);
            wl->applyImage(nvm);
            Cache icache(CacheConfig{}, nvm);
            Cache dcache(CacheConfig{}, nvm);
            Core core(icache, dcache);
            Cycles now = 0;
            const double start = nowSeconds();
            for (const MicroOp &op : wl->ops())
                now += core.step(op, now).cycles;
            seconds += nowSeconds() - start;
            steps += wl->ops().size();
        }
        out["core.step_ns"] = nsPer(seconds, steps);
    }
}

void
memLayer(const LayerInputs &in, SpanRecorder *spans, LayerMetrics &out)
{
    SpanScope span(spans, "mem.nvm_fetch");
    double seconds = 0.0;
    std::uint64_t fetches = 0;
    for (const Workload *wl : in.workloads) {
        Nvm nvm(NvmType::ReRam, SimConfig{}.nvmBytes);
        Block block(tableIBlockBytes);
        hier::LevelEvents events;
        const double start = nowSeconds();
        for (const MicroOp &op : wl->ops()) {
            if (op.type == MicroOp::Type::Alu)
                continue;
            nvm.fetchBlock(op.addr - op.addr % tableIBlockBytes,
                           block.span(), events, 0);
            ++fetches;
        }
        seconds += nowSeconds() - start;
    }
    out["mem.nvm_fetch_ns"] = nsPer(seconds, fetches);
}

void
energyLayer(const LayerInputs &in, SpanRecorder *spans, LayerMetrics &out)
{
    {
        SpanScope span(spans, "energy.trace_gen");
        std::vector<double> ms;
        for (std::uint64_t seed : in.traceSeeds) {
            const double start = nowSeconds();
            const auto trace = makeTrace(TraceKind::RfHome,
                                         SimConfig{}.traceIntervals, seed);
            ms.push_back((nowSeconds() - start) * 1e3);
        }
        out["energy.trace_gen_ms"] = median(ms);
    }
    {
        // The simulator's per-step meter mix: array and core energy,
        // static power, wall-clock advance, recharge on a failure.
        SpanScope span(spans, "energy.meter");
        const SimConfig cfg;
        const PicoJoules access = cfg.energy.cacheAccessEnergy(
            cfg.icache.sizeBytes);
        const Watts leakage =
            cfg.energy.cacheLeakagePerByte *
            (cfg.icache.sizeBytes + cfg.dcache.sizeBytes);
        const Watts standby =
            nvmParams(cfg.nvmType, cfg.nvmBytes).standbyPower;
        double seconds = 0.0;
        std::uint64_t steps = 0;
        for (const Workload *wl : in.workloads) {
            EnergyLedger ledger;
            EnergyMeter meter(cfg.capacitor, cfg.energy, leakage, standby,
                              makeTrace(cfg.trace, cfg.traceIntervals,
                                        in.traceSeeds.front()),
                              ledger, false);
            const double start = nowSeconds();
            for (const MicroOp &op : wl->ops()) {
                const bool mem = op.type != MicroOp::Type::Alu;
                const unsigned instrs = mem ? 1 : op.count;
                const Cycles cycles = mem ? 2 : op.count;
                meter.spend(EnergyCategory::CacheOther,
                            access * (mem ? 2.0 : 1.0));
                meter.spend(EnergyCategory::Others,
                            instrs * cfg.energy.corePerInstr);
                meter.chargeStaticPower(cycles);
                meter.advanceWall(cycles);
                if (meter.failureImminent())
                    meter.rechargeUntilRestore();
            }
            seconds += nowSeconds() - start;
            steps += wl->ops().size();
        }
        out["energy.meter_ns_per_step"] = nsPer(seconds, steps);
    }
}

void
cacheLayers(const LayerInputs &in, SpanRecorder *spans, LayerMetrics &out)
{
    const std::unique_ptr<Compressor> bdi =
        makeCompressor(CompressorKind::Bdi);

    CacheSetup plain;
    out["cache.access_ns.plain"] =
        cacheLayer(in, spans, "cache.access.plain", plain);

    CacheSetup acc;
    acc.comp = bdi.get();
    CacheReplay acc_replay;
    out["cache.access_ns.acc"] =
        cacheLayer(in, spans, "cache.access.acc", acc, &acc_replay);
    out["cache.hit_rate"] =
        ratio(acc_replay.stats.hits, acc_replay.stats.accesses);

    // Untimed: the counting wrapper's bookkeeping is not the cache's.
    {
        SpanScope span(spans, "cache.probes");
        const CountingCompressor counting(*bdi);
        CacheSetup probed = acc;
        probed.comp = &counting;
        CacheReplay replay;
        for (const Workload *wl : in.workloads)
            replayDcache(*wl, probed, replay);
        out["cache.probes_per_access"] =
            ratio(counting.probes(), replay.accesses);
    }

    {
        SpanScope span(spans, "compress.sizebits.bdi");
        // Stored bytes as Compressor::compressedBytes rounds them.
        std::uint64_t stored = 0;
        const double start = nowSeconds();
        for (const ImageBlock &block : in.imageBlocks)
            stored += std::min<std::uint64_t>(
                ceilDiv(bdi->sizeBits(ConstByteSpan{block}), 8),
                tableIBlockBytes);
        const double seconds = nowSeconds() - start;
        out["compress.sizebits_ns.bdi"] =
            nsPer(seconds, in.imageBlocks.size());
        out["compress.ratio.bdi"] = ratio(
            in.imageBlocks.size() * tableIBlockBytes, stored);
    }

    for (TagLayoutKind layout :
         {TagLayoutKind::Superblock, TagLayoutKind::Signature}) {
        CacheSetup tagged = acc;
        tagged.l1.tagLayout = layout;
        const std::string name =
            layout == TagLayoutKind::Superblock ? "superblock"
                                                : "signature";
        CacheReplay replay;
        out["tags.access_ns." + name] =
            cacheLayer(in, spans, "tags.access." + name, tagged, &replay);
        if (layout == TagLayoutKind::Signature)
            out["tags.false_positive_rate.signature"] =
                ratio(replay.tagStats.sigFalsePositives,
                      replay.tagStats.sigRechecks);
    }

    for (ReplKind policy : {ReplKind::Camp, ReplKind::Crrip}) {
        CacheSetup replaced = acc;
        replaced.l1.replacement = policy;
        const std::string name =
            policy == ReplKind::Camp ? "camp" : "crrip";
        out["repl.access_ns." + name] =
            cacheLayer(in, spans, "repl.access." + name, replaced);
    }

    CacheSetup two_level = acc;
    two_level.withL2 = true;
    out["hier.l1_access_ns.l2"] =
        cacheLayer(in, spans, "hier.l1_access.l2", two_level);
}

void
simLayer(const LayerInputs &in, const Goldens &goldens,
         SpanRecorder *spans, LayerMetrics &out, CheckTally &tally)
{
    SpanScope span(spans, "sim");
    const std::uint64_t seed = in.traceSeeds.front();
    std::vector<double> construct_ms, run_ms;
    double kagura_speedup = 0.0, acc_speedup = 0.0;
    std::uint64_t power_failures = 0;

    struct Family
    {
        const char *name;
        SimConfig (*make)(const std::string &);
        double seconds = 0.0;
        std::uint64_t instrs = 0;
    };
    Family families[] = {{"base", baselineConfig},
                         {"acc", accConfig},
                         {"kagura", accKaguraConfig}};

    const auto check = [&](const SimConfig &cfg, const SimResult &r) {
        runner::SimJob job;
        job.config = cfg;
        std::string why;
        tally.note(checkJob(job, "", r, goldens, why), why);
    };

    double ideal_seconds = 0.0;
    std::uint64_t ideal_instrs = 0;
    for (const std::string &app : in.jobs->apps) {
        SpanScope app_span(spans, "sim " + app);
        SimResult family_results[3];
        for (int f = 0; f < 3; ++f) {
            SimConfig cfg = families[f].make(app);
            cfg.traceSeed = seed;
            const double start = nowSeconds();
            Simulator sim(cfg);
            const double built = nowSeconds();
            family_results[f] = sim.run();
            const double done = nowSeconds();
            construct_ms.push_back((built - start) * 1e3);
            run_ms.push_back((done - built) * 1e3);
            families[f].seconds += done - start;
            families[f].instrs += family_results[f].committedInstructions;
            check(cfg, family_results[f]);
        }
        acc_speedup += speedupPct(family_results[1], family_results[0]);
        kagura_speedup += speedupPct(family_results[2], family_results[0]);
        power_failures += family_results[2].powerFailures;

        SimConfig ideal = accKaguraConfig(app);
        ideal.traceSeed = seed;
        const double start = nowSeconds();
        const SimResult r = runIdealOnce(ideal, true);
        ideal_seconds += nowSeconds() - start;
        ideal_instrs += 2 * r.committedInstructions;
        check(ideal, r);
    }
    const double apps = static_cast<double>(in.jobs->apps.size());
    out["sim.construct_ms"] = median(construct_ms);
    out["sim.run_ms"] = median(run_ms);
    for (const Family &f : families)
        out[std::string("sim.minst_per_s.") + f.name] =
            static_cast<double>(f.instrs) / 1e6 / f.seconds;
    out["sim.minst_per_s.ideal"] =
        static_cast<double>(ideal_instrs) / 1e6 / ideal_seconds;
    out["sim.kagura_speedup_pct"] = kagura_speedup / apps;
    out["sim.acc_speedup_pct"] = acc_speedup / apps;
    out["sim.power_failures"] = static_cast<double>(power_failures);
}

std::uint64_t
counterValue(const metrics::MetricSet &set, const std::string &name)
{
    for (const metrics::Record &record : set.snapshot()) {
        if (record.name == name)
            return static_cast<std::uint64_t>(record.value);
    }
    return 0;
}

void
ehsLayer(const LayerInputs &in, const Goldens &goldens,
         SpanRecorder *spans, LayerMetrics &out, CheckTally &tally)
{
    struct Design
    {
        EhsKind kind;
        const char *name;
        bool rollsBack;
    };
    const Design designs[] = {
        {EhsKind::NvsramCache, "nvsram", false},
        {EhsKind::NvMR, "nvmr", false},
        {EhsKind::SweepCache, "sweepcache", true},
        {EhsKind::TaskBased, "taskbased", true},
        {EhsKind::SpecPersist, "specpersist", true},
    };
    for (const Design &design : designs) {
        SpanScope span(spans, std::string("ehs.run.") + design.name);
        double seconds = 0.0;
        std::uint64_t reexecuted = 0, ops = 0;
        for (std::size_t a = 0; a < in.workloads.size(); ++a) {
            SimConfig cfg = accKaguraConfig(in.jobs->apps[a]);
            cfg.ehs = design.kind;
            cfg.traceSeed = in.traceSeeds.front();
            Simulator sim(cfg);
            const double start = nowSeconds();
            const SimResult r = sim.run();
            seconds += nowSeconds() - start;
            reexecuted +=
                counterValue(sim.metricSet(), "sim/ehs/reexecuted_ops");
            ops += in.workloads[a]->ops().size();
            runner::SimJob job;
            job.config = cfg;
            std::string why;
            tally.note(checkJob(job, "", r, goldens, why), why);
        }
        out[std::string("ehs.run_ms.") + design.name] =
            seconds * 1e3 / static_cast<double>(in.workloads.size());
        if (design.rollsBack)
            out[std::string("ehs.reexec_share.") + design.name] =
                ratio(reexecuted, ops);
    }
}

void
runnerLayer(const LayerInputs &in, const Goldens &goldens,
            const std::string &work_dir, SpanRecorder *spans,
            LayerMetrics &out, CheckTally &tally)
{
    const JobList &list = *in.jobs;
    const std::string warm_dir = work_dir + "/layer-warm";
    const std::string store_dir = work_dir + "/layer-store";
    fs::remove_all(warm_dir);
    fs::remove_all(store_dir);

    Pass cold;
    {
        SpanScope span(spans, "runner.cold_pass");
        cold = runPass(list, warm_dir);
    }
    checkResults(list, cold.results, goldens, tally);
    const double workers = static_cast<double>(runner::jobCount());
    out["runner.idle_share"] =
        1.0 - cold.jobSeconds / (workers * cold.wallSeconds);
    {
        SpanScope span(spans, "runner.warm_pass");
        const Pass warm = runPass(list, warm_dir);
        out["runner.hit_rate"] =
            ratio(warm.cacheHits, warm.cacheHits + warm.cacheMisses);
    }

    SpanScope span(spans, "runner.entry_points");
    runner::CacheStore warm_store(warm_dir);
    runner::CacheStore fresh_store(store_dir);
    std::vector<double> key_us, lookup_us, decode_us, encode_us, store_us;
    double entry_bytes = 0.0;
    for (std::size_t i = 0; i < list.jobs.size(); ++i) {
        const runner::SimJob &job = list.jobs[i];
        double t = nowSeconds();
        const std::string key =
            runner::jobKeyText(job.config, runner::jobKindName(job.kind));
        const std::uint64_t hash = runner::fnv1a64(key);
        key_us.push_back((nowSeconds() - t) * 1e6);

        std::string payload;
        t = nowSeconds();
        const bool found = warm_store.lookup(hash, key, payload);
        lookup_us.push_back((nowSeconds() - t) * 1e6);

        SimResult decoded;
        t = nowSeconds();
        const bool decoded_ok =
            found && runner::decodeResult(payload, decoded);
        decode_us.push_back((nowSeconds() - t) * 1e6);

        t = nowSeconds();
        const std::string encoded = runner::encodeResult(cold.results[i]);
        encode_us.push_back((nowSeconds() - t) * 1e6);

        t = nowSeconds();
        fresh_store.store(hash, key, encoded);
        store_us.push_back((nowSeconds() - t) * 1e6);

        std::error_code ec;
        entry_bytes += static_cast<double>(
            fs::file_size(fresh_store.entryPath(hash), ec));
        tally.note(decoded_ok && encoded == payload && !ec,
                   job.config.describe() +
                       ": cache entry does not round-trip");
    }
    out["runner.key_us"] = median(key_us);
    out["runner.lookup_us"] = median(lookup_us);
    out["runner.decode_us"] = median(decode_us);
    out["runner.encode_us"] = median(encode_us);
    out["runner.store_us"] = median(store_us);
    out["runner.entry_kb"] =
        entry_bytes / 1024.0 / static_cast<double>(list.jobs.size());
    fs::remove_all(warm_dir);
    fs::remove_all(store_dir);
}

} // namespace

void
runLayerReplays(const LayerInputs &inputs, const Goldens &goldens,
                const std::string &work_dir, SpanRecorder *spans,
                LayerMetrics &out, CheckTally &tally)
{
    SpanScope span(spans, "layers");
    coreLayer(inputs, spans, out);
    memLayer(inputs, spans, out);
    energyLayer(inputs, spans, out);
    cacheLayers(inputs, spans, out);
    simLayer(inputs, goldens, spans, out, tally);
    ehsLayer(inputs, goldens, spans, out, tally);
    runnerLayer(inputs, goldens, work_dir, spans, out, tally);
}

} // namespace perfbench
