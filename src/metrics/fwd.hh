/**
 * @file
 * Forward declarations for the metrics subsystem, so component
 * headers (cache, energy, kagura...) can declare recordMetrics()
 * hooks without pulling in the record types.
 */

#ifndef KAGURA_METRICS_FWD_HH
#define KAGURA_METRICS_FWD_HH

namespace kagura
{
namespace metrics
{

class MetricSet;
class Sink;
struct Record;

} // namespace metrics
} // namespace kagura

#endif // KAGURA_METRICS_FWD_HH
