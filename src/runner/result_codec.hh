/**
 * @file
 * Binary SimResult codec for the persistent result cache.
 *
 * The format is little-endian, versioned, and *exact*: doubles travel
 * as their IEEE-754 bit patterns, so decode(encode(r)) reproduces r
 * bit for bit (the determinism the runner's aggregation layer
 * promises must survive a cache round trip). The oracle log is
 * written sorted by address, making the encoding canonical: two
 * SimResults are identical iff their encodings are equal -- which is
 * exactly how exactlyEqual() in sim/report.hh compares them.
 */

#ifndef KAGURA_RUNNER_RESULT_CODEC_HH
#define KAGURA_RUNNER_RESULT_CODEC_HH

#include <string>
#include <string_view>

#include "sim/simulator.hh"

namespace kagura
{
namespace runner
{

/** Bump on any layout change; old cache entries then miss. */
constexpr std::uint32_t resultFormatVersion = 1;

/** Serialize @p result to the canonical byte string. */
std::string encodeResult(const SimResult &result);

/**
 * Parse @p bytes into @p out. Returns false (leaving @p out
 * unspecified) on a short, corrupt, non-canonical or version-mismatched
 * payload -- the cache treats that as a miss, never as an error.
 */
bool decodeResult(std::string_view bytes, SimResult &out);

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_RESULT_CODEC_HH
