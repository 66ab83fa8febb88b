/**
 * @file
 * Tests for the benchmark itself: stable job lists, metric names that
 * match BENCHMARK.json, a golden check that catches tampering, and
 * deterministic per-layer replay inputs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "catalog.hh"
#include "jobs.hh"
#include "layers.hh"
#include "runner/config_hash.hh"
#include "sim/simulator.hh"
#include "stats.hh"

namespace perfbench
{
namespace
{

std::vector<std::string>
keysOf(const JobList &list)
{
    std::vector<std::string> keys;
    for (const kagura::runner::SimJob &job : list.jobs)
        keys.push_back(kagura::runner::jobKeyText(
            job.config, kagura::runner::jobKindName(job.kind)));
    return keys;
}

TEST(PerfbenchJobs, ListIsStableForASeed)
{
    for (WorkloadId w : {WorkloadId::PaperSuite, WorkloadId::DesignAxes,
                       WorkloadId::WarmReplay}) {
        const JobList a = jobsFor(w, 7);
        const JobList b = jobsFor(w, 7);
        EXPECT_EQ(keysOf(a), keysOf(b)) << workloadName(w);
        EXPECT_EQ(a.goldenKeys, b.goldenKeys) << workloadName(w);
        EXPECT_EQ(a.jobs.size(), a.goldenKeys.size());
    }
    EXPECT_EQ(jobsFor(WorkloadId::PaperSuite, 7).jobs.size(),
              5u * 20u * paperSuiteSeeds + 3u * 20u);
    EXPECT_EQ(jobsFor(WorkloadId::DesignAxes, 7).jobs.size(),
              9u * 8u * designAxesSeeds + 2u * 8u);
}

TEST(PerfbenchJobs, SeedMovesOnlyTheUnpinnedCells)
{
    const std::uint64_t default_seed = kagura::SimConfig{}.traceSeed;
    for (WorkloadId w : {WorkloadId::PaperSuite, WorkloadId::DesignAxes}) {
        const JobList a = jobsFor(w, 7);
        const JobList b = jobsFor(w, 8);
        const std::vector<std::string> ka = keysOf(a), kb = keysOf(b);
        std::size_t pinned = 0;
        for (std::size_t i = 0; i < a.jobs.size(); ++i) {
            if (a.goldenKeys[i].empty()) {
                EXPECT_NE(ka[i], kb[i]) << "job " << i;
            } else {
                ++pinned;
                EXPECT_EQ(ka[i], kb[i]) << "job " << i;
                EXPECT_EQ(a.jobs[i].config.traceSeed, default_seed);
            }
        }
        EXPECT_GT(pinned, 0u) << workloadName(w);
    }
}

TEST(PerfbenchJobs, WorkloadNamesRoundTrip)
{
    for (WorkloadId w : {WorkloadId::PaperSuite, WorkloadId::DesignAxes,
                       WorkloadId::WarmReplay})
        EXPECT_EQ(parseWorkload(workloadName(w)), w);
    EXPECT_FALSE(parseWorkload("hit").has_value());
}

/** Names declared in one BENCHMARK.json section. */
std::set<std::string>
declaredNames(const std::string &json, const std::string &section,
              const std::string &next_section)
{
    const std::size_t from = json.find("\"" + section + "\"");
    const std::size_t to = next_section.empty()
                               ? json.size()
                               : json.find("\"" + next_section + "\"");
    EXPECT_NE(from, std::string::npos) << section;
    EXPECT_NE(to, std::string::npos) << next_section;
    const std::string body = json.substr(from, to - from);
    const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    std::set<std::string> names;
    for (std::sregex_iterator it(body.begin(), body.end(), name_re), end;
         it != end; ++it)
        names.insert((*it)[1]);
    return names;
}

template <std::size_t N>
std::set<std::string>
catalogNames(const MetricDef (&defs)[N])
{
    std::set<std::string> names;
    for (const MetricDef &def : defs)
        names.insert(def.name);
    return names;
}

TEST(PerfbenchMetrics, NamesAreWellFormedAndMatchBenchmarkJson)
{
    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> all;
    const auto check = [&](const MetricDef &def) {
        EXPECT_TRUE(std::regex_match(def.name, name_re)) << def.name;
        EXPECT_TRUE(std::regex_match(def.unit, unit_re)) << def.unit;
        EXPECT_TRUE(all.insert(def.name).second) << def.name;
    };
    for (const MetricDef &def : endToEndMetrics)
        check(def);
    for (const MetricDef &def : perLayerMetrics)
        check(def);

    std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
    ASSERT_TRUE(in) << "BENCHMARK.json not found";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();
    EXPECT_EQ(declaredNames(json, "end_to_end", "per_layer"),
              catalogNames(endToEndMetrics));
    EXPECT_EQ(declaredNames(json, "per_layer", ""),
              catalogNames(perLayerMetrics));
    const std::set<std::string> workloads = {
        workloadName(WorkloadId::PaperSuite),
        workloadName(WorkloadId::DesignAxes),
        workloadName(WorkloadId::WarmReplay)};
    EXPECT_EQ(declaredNames(json, "workloads", "end_to_end"), workloads);
}

TEST(PerfbenchChecks, GoldenCheckFlagsATamperedFingerprint)
{
    Goldens goldens;
    std::string error;
    ASSERT_TRUE(loadGoldens(PERFBENCH_REPO_ROOT, goldens, error)) << error;
    EXPECT_EQ(goldens.size(), 20u * 6u);

    const JobList list = jobsFor(WorkloadId::PaperSuite, 1);
    std::size_t index = 0;
    while (list.goldenKeys[index] != "crc32/base")
        ++index;
    const kagura::runner::SimJob &job = list.jobs[index];
    kagura::Simulator sim(job.config);
    kagura::SimResult result = sim.run();

    std::string why;
    EXPECT_TRUE(checkJob(job, "crc32/base", result, goldens, why)) << why;

    Goldens tampered = goldens;
    tampered["crc32/base"] ^= 1;
    EXPECT_FALSE(checkJob(job, "crc32/base", result, tampered, why));
    EXPECT_NE(why.find("golden"), std::string::npos) << why;

    result.committedInstructions += 1;
    EXPECT_FALSE(checkJob(job, "", result, goldens, why));

    CheckTally tally;
    tally.note(true, "");
    tally.note(false, "broken");
    EXPECT_EQ(tally.attempted, 2u);
    EXPECT_EQ(tally.failed, 1u);
    ASSERT_EQ(tally.firstFailures.size(), 1u);
}

TEST(PerfbenchChecks, MissingGoldenFileIsAnError)
{
    Goldens goldens;
    std::string error;
    EXPECT_FALSE(loadGoldens("/nonexistent-root", goldens, error));
    EXPECT_FALSE(error.empty());
}

TEST(PerfbenchLayers, ReplayInputsAreDeterministic)
{
    const kagura::Workload first = kagura::makeWorkload("crc32");
    const kagura::Workload second = kagura::makeWorkload("crc32");
    const std::vector<ImageBlock> a = imageBlocksOf(first);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, imageBlocksOf(second));
    ASSERT_EQ(first.ops().size(), second.ops().size());
    for (std::size_t i = 0; i < first.ops().size(); ++i) {
        const kagura::MicroOp &x = first.ops()[i], &y = second.ops()[i];
        ASSERT_TRUE(x.type == y.type && x.size == y.size &&
                    x.count == y.count && x.pc == y.pc &&
                    x.addr == y.addr && x.value == y.value)
            << "op " << i;
    }

    const JobList list = jobsFor(WorkloadId::DesignAxes, 3);
    const LayerInputs in1 = makeLayerInputs(list, 3);
    const LayerInputs in2 = makeLayerInputs(list, 3);
    EXPECT_EQ(in1.imageBlocks, in2.imageBlocks);
    EXPECT_EQ(in1.traceSeeds, in2.traceSeeds);
    EXPECT_EQ(in1.workloads.size(), list.apps.size());
    EXPECT_NE(makeLayerInputs(list, 4).traceSeeds, in1.traceSeeds);
}

TEST(PerfbenchStats, PercentileInterpolatesBetweenRanks)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
    EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

} // namespace
} // namespace perfbench
