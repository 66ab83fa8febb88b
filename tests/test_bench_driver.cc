/**
 * @file
 * Tests for the kagura_bench driver (bench::runBenches) over
 * test-local registries: every selected bench runs even after one
 * fails, the exit status reports the failure, the --summary file
 * passes the kagura.bench/v1 check, and a --metrics-out export of a
 * multi-bench run keeps each record's bench label and closes with the
 * whole run's runner counters, once each. The real 31-bench
 * registry's --list / unknown-name behaviour is driven through the
 * binary by tests/cli_values.sh.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metrics/json.hh"
#include "metrics/sink.hh"
#include "metrics/validate.hh"
#include "runner/cache_store.hh"
#include "runner/runner.hh"

namespace kagura
{
namespace
{

int runsSeen = 0;

int
passes()
{
    ++runsSeen;
    metrics::emitHeadline("bench/test_value", 1.0);
    return 0;
}

int
failsOnce()
{
    ++runsSeen;
    metrics::emitHeadline("bench/test_value", 2.0);
    return 1;
}

/**
 * passes() plus two ideal-unaware crc32 jobs that share one phase-1
 * log: cold, three simulations and one phase-1 reuse; warm, two hits.
 */
int
runsIdealPair()
{
    std::vector<runner::SimJob> jobs(2);
    for (unsigned i = 0; i < jobs.size(); ++i) {
        jobs[i].kind = runner::SimJob::Kind::IdealUnaware;
        jobs[i].config = accConfig("crc32");
        jobs[i].config.traceSeed = suiteSeed(i);
    }
    runner::runJobs(jobs);
    return passes();
}

/** runBenches() over @p entries with @p args after the program name. */
int
drive(std::vector<bench::BenchEntry> entries, std::vector<std::string> args)
{
    args.insert(args.begin(), "kagura_bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    runsSeen = 0;
    return bench::runBenches(static_cast<int>(argv.size()), argv.data(),
                             std::move(entries));
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

const std::vector<bench::BenchEntry> twoOkOneBad = {
    {"alpha", "Test", "first", "passes", &passes},
    {"beta", "Test", "second", "fails", &failsOnce},
    {"gamma", "Test", "third", "passes", &passes},
};

TEST(BenchDriver, AllRunsEveryBenchAndReportsTheFailure)
{
    testing::internal::CaptureStdout();
    const int status = drive(twoOkOneBad, {"all"});
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(status, 1);
    EXPECT_EQ(runsSeen, 3);
    // One banner and one [runner] line per bench, then the totals.
    std::size_t runner_lines = 0;
    for (std::size_t pos = out.find("[runner] jobs=0 sims=0 ");
         pos != std::string::npos;
         pos = out.find("[runner] jobs=0 sims=0 ", pos + 1))
        ++runner_lines;
    EXPECT_EQ(runner_lines, 3u) << out;
    EXPECT_NE(out.find("Test -- second\nPaper reports: fails\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("SUMMARY  passed=2 failed=1\n  FAILED  beta\n"),
              std::string::npos)
        << out;
}

TEST(BenchDriver, NamedBenchesRunInTheOrderGiven)
{
    testing::internal::CaptureStdout();
    const int status = drive(twoOkOneBad, {"gamma", "alpha"});
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(status, 0);
    EXPECT_EQ(runsSeen, 2);
    EXPECT_LT(out.find("Test -- third"), out.find("Test -- first"));
}

TEST(BenchDriver, SummaryPassesTheBenchSchemaCheck)
{
    const std::string path =
        testing::TempDir() + "kagura-bench-driver-summary.json";
    testing::internal::CaptureStdout();
    const int status = drive(twoOkOneBad, {"all", "--summary", path});
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(status, 1);

    metrics::json::Value doc;
    std::string error;
    ASSERT_TRUE(metrics::json::parse(slurp(path), doc, &error)) << error;
    EXPECT_TRUE(metrics::validateBenchSummary(doc, &error)) << error;
    EXPECT_EQ(doc.find("benches_passed")->number, 2.0);
    EXPECT_EQ(doc.find("benches_failed")->number, 1.0);
    EXPECT_TRUE(doc.find("fig13_speedup_geomean")->isNull());
    const metrics::json::Value *benches = doc.find("benches");
    ASSERT_TRUE(benches && benches->isObject());
    EXPECT_EQ(benches->object.size(), 3u);
    EXPECT_NE(benches->find("beta"), nullptr);

    // The check itself rejects what it should.
    metrics::json::Value bad;
    ASSERT_TRUE(metrics::json::parse(
        R"({"schema":"kagura.bench/v1","pr":"x"})", bad));
    EXPECT_FALSE(metrics::validateBenchSummary(bad, &error));
    EXPECT_NE(error.find("total_wall_seconds"), std::string::npos);
    std::remove(path.c_str());
}

TEST(BenchDriver, MetricsExportKeepsEachBenchLabel)
{
    const std::string path =
        testing::TempDir() + "kagura-bench-driver-metrics.jsonl";
    // alpha runs twice against a fresh cache: cold, then all hits.
    runner::CacheStore &cache = runner::CacheStore::global();
    const bool saved_enabled = cache.enabled();
    const std::string saved_dir = cache.directory();
    const std::string cache_dir = testing::TempDir() +
                                  "kagura-bench-driver-cache-" +
                                  std::to_string(::getpid());
    std::filesystem::remove_all(cache_dir);
    cache.setDirectory(cache_dir);
    cache.setEnabled(true);
    const std::vector<bench::BenchEntry> entries = {
        {"alpha", "Test", "first", "runs an ideal pair", &runsIdealPair},
        {"beta", "Test", "second", "fails", &failsOnce},
    };
    testing::internal::CaptureStdout();
    const int status = drive(
        entries, {"alpha", "alpha", "beta", "--metrics-out", path});
    const std::string out = testing::internal::GetCapturedStdout();
    cache.setDirectory(saved_dir);
    cache.setEnabled(saved_enabled);
    std::filesystem::remove_all(cache_dir);
    EXPECT_EQ(status, 1);
    EXPECT_EQ(metrics::defaultSink(), nullptr);

    unsigned long long jobs = 0, sims = 0, hits = 0, lookups = 0;
    const std::size_t total_at = out.find("\nTOTAL  wall=");
    ASSERT_NE(total_at, std::string::npos) << out;
    ASSERT_EQ(std::sscanf(out.c_str() + total_at,
                          "\nTOTAL  wall=%*fs  jobs=%llu  sims=%llu  "
                          "cache_hits=%llu/%llu",
                          &jobs, &sims, &hits, &lookups),
              4)
        << out;
    EXPECT_EQ(jobs, 4u);
    EXPECT_EQ(sims, 3u);
    EXPECT_EQ(hits, 2u);
    EXPECT_EQ(lookups, 4u);

    const std::string text = slurp(path);
    std::string error;
    std::size_t records = 0;
    ASSERT_TRUE(metrics::validateRecordStream(text, &error, &records))
        << error;
    EXPECT_GT(records, 0u);

    // Each bench's own headline and runner counters carry its label;
    // the unlabelled records after the last bench are the whole run's.
    std::set<std::string> test_value_benches;
    std::set<std::string> runner_benches;
    std::map<std::string, std::vector<double>> run_counters;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        metrics::json::Value rec;
        ASSERT_TRUE(metrics::json::parse(line, rec));
        const std::string &name = rec.find("name")->str;
        EXPECT_NE(name.rfind("runner/pool/", 0), 0u) << line;
        const metrics::json::Value *labels = rec.find("labels");
        const metrics::json::Value *bench =
            labels ? labels->find("bench") : nullptr;
        if (!bench) {
            const metrics::json::Value *value = rec.find("value");
            ASSERT_NE(value, nullptr) << line;
            run_counters[name].push_back(value->number);
            continue;
        }
        if (name == "bench/test_value")
            test_value_benches.insert(bench->str);
        else if (name == "runner/jobs_done")
            runner_benches.insert(bench->str);
    }
    const std::set<std::string> both = {"alpha", "beta"};
    EXPECT_EQ(test_value_benches, both);
    EXPECT_EQ(runner_benches, both);
    const std::map<std::string, double> whole_run = {
        {"runner/jobs_done", static_cast<double>(jobs)},
        {"runner/simulations", static_cast<double>(sims)},
        {"runner/cache_hits", static_cast<double>(hits)},
        {"runner/phase1_reused", 1.0},
    };
    for (const auto &[name, value] : whole_run) {
        ASSERT_EQ(run_counters[name].size(), 1u) << name;
        EXPECT_EQ(run_counters[name][0], value) << name;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace kagura
