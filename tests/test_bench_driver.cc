/**
 * @file
 * Tests for the kagura_bench driver (bench::runBenches) over
 * test-local registries: every selected bench runs even after one
 * fails, the exit status reports the failure, the --summary file
 * passes the kagura.bench/v1 check, and a --metrics-out export of a
 * multi-bench run keeps each record's bench label. The real 31-bench
 * registry's --list / unknown-name behaviour is driven through the
 * binary by tests/cli_values.sh.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metrics/json.hh"
#include "metrics/sink.hh"
#include "metrics/validate.hh"

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
    testing::internal::CaptureStdout();
    const int status =
        drive(twoOkOneBad, {"alpha", "beta", "--metrics-out", path});
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(status, 1);
    EXPECT_EQ(metrics::defaultSink(), nullptr);

    const std::string text = slurp(path);
    std::string error;
    std::size_t records = 0;
    ASSERT_TRUE(metrics::validateRecordStream(text, &error, &records))
        << error;
    EXPECT_GT(records, 0u);

    // Each bench's own headline and runner counters carry its label.
    std::set<std::string> test_value_benches;
    std::set<std::string> runner_benches;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        metrics::json::Value rec;
        ASSERT_TRUE(metrics::json::parse(line, rec));
        const metrics::json::Value *labels = rec.find("labels");
        const metrics::json::Value *bench =
            labels ? labels->find("bench") : nullptr;
        if (!bench)
            continue;
        const std::string &name = rec.find("name")->str;
        if (name == "bench/test_value")
            test_value_benches.insert(bench->str);
        else if (name == "runner/jobs_done")
            runner_benches.insert(bench->str);
    }
    const std::set<std::string> both = {"alpha", "beta"};
    EXPECT_EQ(test_value_benches, both);
    EXPECT_EQ(runner_benches, both);
    std::remove(path.c_str());
}

} // namespace
} // namespace kagura
