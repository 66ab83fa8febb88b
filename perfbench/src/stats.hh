/**
 * @file
 * Order statistics over a run's samples.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace perfbench
{

/**
 * The @p p-th percentile (0..100) by linear interpolation between
 * closest ranks; 0 for no samples.
 */
inline double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
