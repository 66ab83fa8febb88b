/**
 * @file
 * Lightweight statistics primitives: running scalars, means,
 * fixed-bucket histograms used for per-power-cycle metrics (e.g. the
 * cycle-length distribution of Fig. 14), and the seeded bootstrap CI
 * the paired comparisons report.
 */

#ifndef KAGURA_COMMON_STATS_HH
#define KAGURA_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace kagura
{

/** Running mean / min / max / count accumulator. */
class RunningStat
{
  public:
    /** Fold one sample into the accumulator. */
    void
    add(double sample)
    {
        ++n;
        sum += sample;
        sumSq += sample * sample;
        minV = std::min(minV, sample);
        maxV = std::max(maxV, sample);
    }

    /** Number of samples folded in so far. */
    std::uint64_t count() const { return n; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }

    /** Population standard deviation (0 when empty). */
    double
    stddev() const
    {
        if (n == 0)
            return 0.0;
        double m = mean();
        double var = sumSq / static_cast<double>(n) - m * m;
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    /** Smallest sample seen (+inf when empty). */
    double min() const { return minV; }

    /** Largest sample seen (-inf when empty). */
    double max() const { return maxV; }

    /** Sum of all samples. */
    double total() const { return sum; }

    /** Forget all samples. */
    void
    reset()
    {
        n = 0;
        sum = sumSq = 0.0;
        minV = std::numeric_limits<double>::infinity();
        maxV = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t n = 0;
    double sum = 0.0;
    double sumSq = 0.0;
    double minV = std::numeric_limits<double>::infinity();
    double maxV = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-width linear histogram over [lo, hi); samples outside the range
 * clamp into the first/last bucket so no sample is dropped.
 */
class Histogram
{
  public:
    /**
     * @param lo Lower bound of the first bucket.
     * @param hi Upper bound of the last bucket.
     * @param buckets Number of equal-width buckets (>= 1).
     */
    Histogram(double lo, double hi, std::size_t buckets)
        : low(lo), high(hi), counts(buckets ? buckets : 1, 0)
    {
    }

    /** Fold a sample into its bucket (clamping at the edges). */
    void
    add(double sample)
    {
        double span = high - low;
        auto idx = static_cast<long>(
            (sample - low) / span * static_cast<double>(counts.size()));
        idx = std::clamp<long>(idx, 0, static_cast<long>(counts.size()) - 1);
        ++counts[static_cast<std::size_t>(idx)];
        ++total;
    }

    /** Number of buckets. */
    std::size_t size() const { return counts.size(); }

    /** Raw count in bucket @p i. */
    std::uint64_t bucketCount(std::size_t i) const { return counts.at(i); }

    /** Fraction of all samples falling in bucket @p i (0 when empty). */
    double
    density(std::size_t i) const
    {
        return total ? static_cast<double>(counts.at(i)) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Inclusive lower edge of bucket @p i. */
    double
    bucketLow(std::size_t i) const
    {
        return low + (high - low) * static_cast<double>(i) /
                         static_cast<double>(counts.size());
    }

    /** Total number of samples. */
    std::uint64_t samples() const { return total; }

  private:
    double low;
    double high;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
};

/** Relative difference |a-b| / max(|a|,|b|); 0 when both are zero. */
inline double
relativeDifference(double a, double b)
{
    double denom = std::max(std::abs(a), std::abs(b));
    return denom == 0.0 ? 0.0 : std::abs(a - b) / denom;
}

/** Percentage change of @p value relative to @p baseline. */
inline double
percentChange(double value, double baseline)
{
    return baseline == 0.0 ? 0.0 : (value - baseline) / baseline * 100.0;
}

/** Geometric mean of a nonempty vector of positive values. */
inline double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += std::log(v);
    return std::exp(acc / static_cast<double>(values.size()));
}

/** A mean with its 95% confidence interval. */
struct BootstrapCi
{
    double mean = 0.0;
    double lo = 0.0;
    double hi = 0.0;

    /** Does the interval exclude zero? */
    bool resolved() const { return lo > 0.0 || hi < 0.0; }
};

/**
 * Seeded percentile bootstrap of the mean of per-group means: each of
 * 4000 replicates redraws every group's samples with
 * replacement (stratified: a group keeps its size) and averages the
 * group means; the interval is the replicates' 2.5th..97.5th
 * percentiles. One group of per-seed paired deltas gives an app's CI;
 * one group per app gives the suite's. Deterministic in @p seed.
 * Every group must be nonempty.
 */
inline BootstrapCi
bootstrapMeanCi(const std::vector<std::vector<double>> &groups,
                std::uint64_t seed)
{
    constexpr unsigned resamples = 4000;
    BootstrapCi ci;
    if (groups.empty())
        return ci;
    const auto group_count = static_cast<double>(groups.size());
    for (const std::vector<double> &group : groups) {
        double sum = 0.0;
        for (double v : group)
            sum += v;
        ci.mean += sum / static_cast<double>(group.size()) / group_count;
    }
    Rng rng(seed);
    std::vector<double> means(resamples);
    for (double &mean : means) {
        mean = 0.0;
        for (const std::vector<double> &group : groups) {
            double sum = 0.0;
            for (std::size_t i = 0; i < group.size(); ++i)
                sum += group[rng.below(group.size())];
            mean += sum / static_cast<double>(group.size()) / group_count;
        }
    }
    std::sort(means.begin(), means.end());
    const auto at = [&means](double q) {
        return means[static_cast<std::size_t>(
            q * static_cast<double>(means.size() - 1) + 0.5)];
    };
    ci.lo = at(0.025);
    ci.hi = at(0.975);
    return ci;
}

} // namespace kagura

#endif // KAGURA_COMMON_STATS_HH
