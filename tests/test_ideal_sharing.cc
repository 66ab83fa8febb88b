/**
 * @file
 * Phase-1 sharing for ideal runs. runJobs() runs the ideal-unaware
 * jobs of one unawarePhase1Key() as one task that records phase 1
 * once, and runs an ideal-aware job in one task with the plain job of
 * the same canonicalKey(), whose simulation doubles as the aware
 * job's phase 1. These tests pin the property that makes the unaware
 * sharing sound (at infinite energy the recorded log ignores the
 * power trace), that sharing changes no result at any worker count,
 * list order or cache state, and that a Fig. 13-shaped list reuses
 * exactly the logs it should.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "runner/cache_store.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace kagura
{
namespace
{

/** Runs @p n index-slotted tasks on a small pool (test set-up only). */
template <typename Fn>
void
parallelFor(std::size_t n, Fn fn)
{
    runner::ThreadPool pool(4);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

std::uint64_t
phase1Reused()
{
    return metrics::Registry::global()
        .counter("runner/phase1_reused")
        .get();
}

/** Simulators run so far (runner/simulations). */
std::uint64_t
simulations()
{
    return metrics::Registry::global()
        .counter("runner/simulations")
        .get();
}

std::uint64_t
phase1FromPlain()
{
    return metrics::Registry::global()
        .counter("runner/phase1_from_plain")
        .get();
}

/** Power-trace settings that differ from SimConfig{} in every field. */
struct TraceSetting
{
    TraceKind kind;
    std::uint64_t seed;
    double scale;
    std::uint64_t intervals;
};

constexpr TraceSetting otherTraces[] = {
    {TraceKind::Solar, 12345, 0.6, 80000},
    {TraceKind::Thermal, 99, 1.7, 300000},
};

SimConfig
withTrace(SimConfig cfg, const TraceSetting &t)
{
    cfg.trace = t.kind;
    cfg.traceSeed = t.seed;
    cfg.traceScale = t.scale;
    cfg.traceIntervals = t.intervals;
    return cfg;
}

/** The phase-1 config runIdealOnce() records for an unaware ideal. */
SimConfig
unawareRecord(SimConfig cfg)
{
    cfg.oracle = OracleMode::Record;
    cfg.infiniteEnergy = true;
    return cfg;
}

TEST(IdealPhase1Sharing, InfiniteEnergyLogIgnoresThePowerTrace)
{
    informEnabled = false;
    std::vector<SimConfig> bases;
    for (const std::string &app : workloadNames()) {
        bases.push_back(accConfig(app));
        SimConfig mem = accKaguraConfig(app);
        mem.kagura.trigger = TriggerKind::Memory;
        bases.push_back(mem);
        SimConfig vol = accKaguraConfig(app);
        vol.kagura.trigger = TriggerKind::Voltage;
        bases.push_back(vol);
    }
    constexpr std::size_t settings = 1 + std::size(otherTraces);
    std::vector<SimResult> logs(bases.size() * settings);
    parallelFor(logs.size(), [&](std::size_t i) {
        const std::size_t s = i % settings;
        SimConfig cfg = unawareRecord(bases[i / settings]);
        if (s > 0)
            cfg = withTrace(cfg, otherTraces[s - 1]);
        logs[i] = Simulator(cfg).run();
    });
    std::size_t recorded = 0;
    for (std::size_t b = 0; b < bases.size(); ++b) {
        const SimResult &ref = logs[b * settings];
        recorded += ref.oracle.size() > 0;
        for (std::size_t s = 1; s < settings; ++s) {
            const SimResult &other = logs[b * settings + s];
            EXPECT_TRUE(other.oracle == ref.oracle)
                << bases[b].describe() << " trace setting " << s;
            EXPECT_EQ(other.wallCycles, ref.wallCycles)
                << bases[b].describe() << " trace setting " << s;
        }
    }
    // Not vacuous: most runs record outcomes.
    EXPECT_GT(recorded, bases.size() / 2);
}

TEST(IdealPhase1Sharing, KeyIgnoresOnlyThePowerTrace)
{
    const SimConfig base = accConfig("crc32");
    const std::string key = unawarePhase1Key(base);
    for (const TraceSetting &t : otherTraces)
        EXPECT_EQ(unawarePhase1Key(withTrace(base, t)), key);

    EXPECT_NE(unawarePhase1Key(accConfig("adpcm_d")), key);
    EXPECT_NE(unawarePhase1Key(accKaguraConfig("crc32")), key);
    SimConfig other = base;
    other.compressor = CompressorKind::Fpc;
    EXPECT_NE(unawarePhase1Key(other), key);
    other = base;
    other.capacitor.capacitance *= 2;
    EXPECT_NE(unawarePhase1Key(other), key);
}

/**
 * Hermetic runner state (cache parked off, worker count restored) plus
 * a Fig. 13-shaped job list: the ideal-unaware series over every app
 * and suite seed, with a plain and an ideal-aware job interleaved so
 * grouping has to keep foreign jobs in their slots.
 */
class IdealSharingRunner : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        informEnabled = false;
        savedEnabled = runner::CacheStore::global().enabled();
        savedDir = runner::CacheStore::global().directory();
        runner::CacheStore::global().setEnabled(false);
    }

    void
    TearDown() override
    {
        runner::setJobCount(0);
        runner::CacheStore::global().setDirectory(savedDir);
        runner::CacheStore::global().setEnabled(savedEnabled);
    }

    /** Fresh temp cache directory (pid-suffixed like test_runner.cc). */
    static void
    useFreshCache(const std::string &leaf)
    {
        const std::string dir = testing::TempDir() + "kagura-" + leaf +
                                "-" + std::to_string(::getpid());
        std::filesystem::remove_all(dir);
        runner::CacheStore::global().setDirectory(dir);
        runner::CacheStore::global().setEnabled(true);
    }

    static constexpr unsigned seeds = 5;

    static std::vector<runner::SimJob>
    paperShapedList()
    {
        std::vector<runner::SimJob> jobs;
        for (const std::string &app : workloadNames()) {
            for (unsigned rep = 0; rep < seeds; ++rep) {
                runner::SimJob job;
                job.kind = runner::SimJob::Kind::IdealUnaware;
                job.config = accConfig(app);
                job.config.traceSeed = suiteSeed(rep);
                jobs.push_back(job);
            }
        }
        runner::SimJob plain;
        plain.config = accConfig("crc32");
        jobs.insert(jobs.begin() + 3, plain);
        runner::SimJob aware;
        aware.kind = runner::SimJob::Kind::IdealAware;
        aware.config = accConfig("crc32");
        jobs.insert(jobs.begin() + 7, aware);
        return jobs;
    }

    /** Each job on its own, with no sharing. */
    static SimResult
    reference(const runner::SimJob &job)
    {
        switch (job.kind) {
          case runner::SimJob::Kind::Plain:
            return Simulator(job.config).run();
          case runner::SimJob::Kind::IdealAware:
            return runIdealOnce(job.config, true);
          case runner::SimJob::Kind::IdealUnaware:
            return runIdealOnce(job.config, false);
        }
        return {};
    }

    static void
    expectEqual(const std::vector<SimResult> &got,
                const std::vector<SimResult> &want, const char *what)
    {
        ASSERT_EQ(got.size(), want.size()) << what;
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(exactlyEqual(got[i], want[i]))
                << what << ": job " << i;
    }

    static runner::SimJob
    job(runner::SimJob::Kind kind, SimConfig config)
    {
        runner::SimJob out;
        out.kind = kind;
        out.config = std::move(config);
        return out;
    }

    /**
     * ACC+Kagura under both triggers for every app, each as a plain
     * job and its ideal-aware partner. Odd pairs list the aware job
     * first, so the runner must reorder inside the task.
     */
    static std::vector<runner::SimJob>
    plainAwarePairs()
    {
        std::vector<runner::SimJob> jobs;
        for (const std::string &app : workloadNames()) {
            for (const TriggerKind trigger :
                 {TriggerKind::Memory, TriggerKind::Voltage}) {
                SimConfig cfg = accKaguraConfig(app);
                cfg.kagura.trigger = trigger;
                runner::SimJob plain =
                    job(runner::SimJob::Kind::Plain, cfg);
                runner::SimJob aware =
                    job(runner::SimJob::Kind::IdealAware, cfg);
                if (jobs.size() % 4 == 0) {
                    jobs.push_back(std::move(plain));
                    jobs.push_back(std::move(aware));
                } else {
                    jobs.push_back(std::move(aware));
                    jobs.push_back(std::move(plain));
                }
            }
        }
        return jobs;
    }

    /** The jobs of @p jobs whose kind is @p kind. */
    static std::vector<runner::SimJob>
    onlyKind(const std::vector<runner::SimJob> &jobs,
             runner::SimJob::Kind kind)
    {
        std::vector<runner::SimJob> out;
        for (const runner::SimJob &j : jobs) {
            if (j.kind == kind)
                out.push_back(j);
        }
        return out;
    }

    bool savedEnabled = false;
    std::string savedDir;
};

TEST_F(IdealSharingRunner, PlainRunDoublesAsTheAwarePhase1)
{
    const std::vector<runner::SimJob> jobs = plainAwarePairs();
    std::vector<SimResult> want(jobs.size());
    parallelFor(jobs.size(),
                [&](std::size_t i) { want[i] = reference(jobs[i]); });
    const std::uint64_t pairs = jobs.size() / 2;

    for (const unsigned workers : {1u, 8u}) {
        runner::setJobCount(workers);
        const std::uint64_t before = phase1FromPlain();
        const std::uint64_t reused = phase1Reused();
        const std::uint64_t sims = simulations();
        expectEqual(runner::runJobs(jobs), want,
                    workers == 1 ? "cache off, 1 worker"
                                 : "cache off, 8 workers");
        EXPECT_EQ(phase1FromPlain() - before, pairs) << workers;
        EXPECT_EQ(phase1Reused(), reused) << workers;
        // Per pair: the plain run (doubling as phase 1) + phase 2.
        EXPECT_EQ(simulations() - sims, 2 * pairs) << workers;
    }

    runner::setJobCount(8);
    useFreshCache("aware-cold");
    std::uint64_t before = phase1FromPlain();
    expectEqual(runner::runJobs(jobs), want, "cold cache");
    EXPECT_EQ(phase1FromPlain() - before, pairs);

    // Only the plain jobs are cached: every aware job records its own
    // phase 1.
    useFreshCache("aware-plain-warm");
    runner::runJobs(onlyKind(jobs, runner::SimJob::Kind::Plain));
    before = phase1FromPlain();
    const std::uint64_t sims = simulations();
    expectEqual(runner::runJobs(jobs), want, "plain-only warm cache");
    EXPECT_EQ(phase1FromPlain() - before, 0u);
    // Per aware job: its own phase 1 + phase 2.
    EXPECT_EQ(simulations() - sims, 2 * pairs);

    // Only the aware jobs are cached: the plain jobs simulate, and no
    // aware job needs their logs.
    useFreshCache("aware-ideal-warm");
    runner::runJobs(onlyKind(jobs, runner::SimJob::Kind::IdealAware));
    before = phase1FromPlain();
    expectEqual(runner::runJobs(jobs), want, "aware-only warm cache");
    EXPECT_EQ(phase1FromPlain() - before, 0u);
}

TEST_F(IdealSharingRunner, SharedPhase1MatchesPerJobRunsEverywhere)
{
    const std::vector<runner::SimJob> jobs = paperShapedList();
    std::vector<SimResult> want(jobs.size());
    parallelFor(jobs.size(),
                [&](std::size_t i) { want[i] = reference(jobs[i]); });

    // 20 apps x 5 seeds share one log per app: 80 reuses per cold pass.
    const std::uint64_t apps = workloadNames().size();
    const std::uint64_t per_pass = apps * (seeds - 1);
    // Simulators per pass: one phase 2 per unaware job and one shared
    // phase 1 per app, the plain job, and the aware job's phase 2 (its
    // phase 1 is the plain run).
    const std::uint64_t sims_per_pass = apps * seeds + apps + 1 + 1;
    for (const unsigned workers : {1u, 8u}) {
        runner::setJobCount(workers);
        const std::uint64_t before = phase1Reused();
        const std::uint64_t sims = simulations();
        expectEqual(runner::runJobs(jobs), want,
                    workers == 1 ? "cache off, 1 worker"
                                 : "cache off, 8 workers");
        EXPECT_EQ(phase1Reused() - before, per_pass) << workers;
        EXPECT_EQ(simulations() - sims, sims_per_pass) << workers;
    }

    runner::setJobCount(8);
    useFreshCache("ideal-cold");
    std::uint64_t before = phase1Reused();
    expectEqual(runner::runJobs(jobs), want, "cold cache");
    EXPECT_EQ(phase1Reused() - before, per_pass);

    // Partly warm: per app, pre-run a different subset of its seeds --
    // none, the first, a middle one, all but the first, or all -- so
    // groups start with a hit, end with one, or hit throughout.
    useFreshCache("ideal-warm");
    std::vector<runner::SimJob> warm_up;
    std::uint64_t expected_reuse = 0;
    unsigned app_index = 0;
    for (const std::string &app : workloadNames()) {
        unsigned misses = 0;
        for (unsigned rep = 0; rep < seeds; ++rep) {
            bool warm = false;
            switch (app_index % 5) {
              case 0: warm = false; break;
              case 1: warm = rep == 0; break;
              case 2: warm = rep == 2; break;
              case 3: warm = rep != 0; break;
              default: warm = true; break;
            }
            if (!warm) {
                ++misses;
                continue;
            }
            runner::SimJob job;
            job.kind = runner::SimJob::Kind::IdealUnaware;
            job.config = accConfig(app);
            job.config.traceSeed = suiteSeed(rep);
            warm_up.push_back(job);
        }
        expected_reuse += misses > 0 ? misses - 1 : 0;
        ++app_index;
    }
    runner::runJobs(warm_up);
    before = phase1Reused();
    expectEqual(runner::runJobs(jobs), want, "partly warm cache");
    EXPECT_EQ(phase1Reused() - before, expected_reuse);
}

} // namespace
} // namespace kagura
