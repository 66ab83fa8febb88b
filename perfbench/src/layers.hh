/**
 * @file
 * Per-layer replays for traced runs: each one drives a layer's public
 * entry points from outside, on the inputs of the workload under test
 * (its apps' op streams and image blocks, its job list's configs), and
 * times the calls. Nothing here reaches inside the simulator.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/workload.hh"
#include "jobs.hh"
#include "spans.hh"

namespace perfbench
{

/** Bytes per Table I cache block. */
constexpr std::size_t tableIBlockBytes = 32;

using ImageBlock = std::array<std::uint8_t, tableIBlockBytes>;

/** What the replays run on, derived from one workload's job list. */
struct LayerInputs
{
    const JobList *jobs = nullptr;
    /** One generated workload per app of the list, in list order. */
    std::vector<const kagura::Workload *> workloads;
    /** Every 32-B block the apps' initial images touch. */
    std::vector<ImageBlock> imageBlocks;
    /** Trace seeds the replays' simulations and traces use. */
    std::vector<std::uint64_t> traceSeeds;
};

/** Build the replay inputs of @p jobs at workload seed @p seed. */
LayerInputs makeLayerInputs(const JobList &jobs, std::uint64_t seed);

/** The 32-B blocks of @p workload's initial image, in address order. */
std::vector<ImageBlock> imageBlocksOf(const kagura::Workload &workload);

using LayerMetrics = std::map<std::string, double>;

/**
 * Run every layer replay once, recording spans into @p spans (may be
 * null) and one value per per-layer metric into @p out. Simulations
 * the replays run are checked into @p tally. @p work_dir is scratch
 * space for the runner's result-cache replays.
 */
void runLayerReplays(const LayerInputs &inputs, const Goldens &goldens,
                     const std::string &work_dir, SpanRecorder *spans,
                     LayerMetrics &out, CheckTally &tally);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
