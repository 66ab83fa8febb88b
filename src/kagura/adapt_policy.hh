/**
 * @file
 * Threshold adaptation policies for Kagura's compression-disabling
 * threshold R_thres (Section VI-B and the Fig. 21 sensitivity study).
 *
 * The decision input is the eviction count of the previous power
 * cycle: many evictions mean the effective capacity was too small, so
 * the threshold should fall (compress longer); few evictions mean
 * compression can stop earlier, so the threshold should rise.
 */

#ifndef KAGURA_KAGURA_ADAPT_POLICY_HH
#define KAGURA_KAGURA_ADAPT_POLICY_HH

#include <cstdint>

#include "common/spelling.hh"

namespace kagura
{

/** The four adaptation schemes of Fig. 21. */
enum class AdaptScheme
{
    Aimd, ///< additive increase / multiplicative decrease (default)
    Miad, ///< multiplicative increase / additive decrease
    Aiad, ///< additive increase / additive decrease
    Mimd, ///< multiplicative increase / multiplicative decrease
};

/** Scheme names, in enum order. */
inline constexpr EnumName<AdaptScheme> adaptSchemeNames[] = {
    {AdaptScheme::Aimd, "AIMD"},
    {AdaptScheme::Miad, "MIAD"},
    {AdaptScheme::Aiad, "AIAD"},
    {AdaptScheme::Mimd, "MIMD"},
};

inline const char *
adaptSchemeName(AdaptScheme scheme)
{
    return enumName<adaptSchemeNames>(scheme);
}

/**
 * Apply one reboot-time adaptation step.
 *
 * @param scheme The scheme in force.
 * @param threshold Current R_thres.
 * @param evictions R_evict from the ended power cycle.
 * @param increase_step Additive step as a fraction (default 0.10).
 * @return The new R_thres, clamped to [minThreshold, maxThreshold].
 */
std::uint64_t adaptThreshold(AdaptScheme scheme, std::uint64_t threshold,
                             std::uint64_t evictions,
                             double increase_step,
                             double pressure_fraction = 0.08);

/** Lower clamp for R_thres. */
constexpr std::uint64_t minThreshold = 2;

/** Upper clamp for R_thres. */
constexpr std::uint64_t maxThreshold = 1 << 20;

} // namespace kagura

#endif // KAGURA_KAGURA_ADAPT_POLICY_HH
