/**
 * @file
 * Tests for the JSON result export.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "metrics/json.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace kagura
{
namespace
{

struct ReportTests : testing::Test
{
    ReportTests() { informEnabled = false; }
};

TEST_F(ReportTests, ContainsTheHeadlineFields)
{
    Simulator sim(baselineConfig("crc32"));
    const SimResult r = sim.run();
    const std::string json = toJson(r);
    for (const char *field :
         {"\"workload\":\"crc32\"", "\"wall_cycles\":",
          "\"committed_instructions\":", "\"power_failures\":",
          "\"energy_pj\":", "\"icache\":", "\"dcache\":",
          "\"kagura\":", "\"total\":"}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
    // Per-cycle array only on request.
    EXPECT_EQ(json.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(toJson(r, true).find("\"cycles\":["), std::string::npos);
}

TEST_F(ReportTests, BalancedBracesAndQuotes)
{
    Simulator sim(accKaguraConfig("crc32"));
    const std::string json = toJson(sim.run(), true);
    int depth = 0;
    std::size_t quotes = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        else if (c == '"')
            ++quotes;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(quotes % 2, 0u);
}

TEST_F(ReportTests, NumbersMatchTheResult)
{
    Simulator sim(baselineConfig("crc32"));
    const SimResult r = sim.run();
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"committed_instructions\":" +
                        std::to_string(r.committedInstructions)),
              std::string::npos);
    EXPECT_NE(json.find("\"power_failures\":" +
                        std::to_string(r.powerFailures)),
              std::string::npos);
}

TEST_F(ReportTests, WorkloadNameSurvivesAsJsonText)
{
    // A trace workload's name comes from the trace header: any bytes,
    // any length up to 64 KiB.
    for (const std::string &name :
         {std::string("a\"b\\c"), std::string(2000, 'n')}) {
        SimResult r;
        r.workload = name;
        metrics::json::Value doc;
        std::string error;
        ASSERT_TRUE(metrics::json::parse(toJson(r, true), doc, &error))
            << error;
        const metrics::json::Value *workload = doc.find("workload");
        ASSERT_NE(workload, nullptr);
        ASSERT_TRUE(workload->isString());
        EXPECT_EQ(workload->str, name);
    }
}

TEST_F(ReportTests, WriteJsonEndsWithNewline)
{
    Simulator sim(baselineConfig("crc32"));
    const SimResult r = sim.run();
    std::FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    writeJson(r, tmp);
    std::fseek(tmp, -1, SEEK_END);
    EXPECT_EQ(std::fgetc(tmp), '\n');
    std::fclose(tmp);
}

} // namespace
} // namespace kagura
