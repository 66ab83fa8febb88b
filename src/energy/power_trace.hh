/**
 * @file
 * Ambient power traces. Each trace is a sequence of average-power
 * samples over fixed 10 us intervals, exactly the file format the paper
 * describes in Section VIII ("each entry represents the average power
 * over a 10 us interval").
 *
 * The real RFHome [63] and Mementos [135] traces are not redistributable,
 * so we provide deterministic synthetic generators calibrated to the
 * qualitative characteristics in Fig. 11:
 *  - RFHome: weak and bursty; long lulls punctuated by harvest bursts.
 *  - Solar:  strong with a slow diurnal-style envelope; mostly stable.
 *  - Thermal: moderate amplitude, small variance; the most stable.
 * A trace can also be loaded from a text file (one watt value per line)
 * to plug in measured data.
 */

#ifndef KAGURA_ENERGY_POWER_TRACE_HH
#define KAGURA_ENERGY_POWER_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/spelling.hh"
#include "common/types.hh"

namespace kagura
{

/** Which ambient source to synthesise (Fig. 30 sweep). */
enum class TraceKind
{
    RfHome, ///< default evaluation trace
    Solar,
    Thermal,
    Constant, ///< fixed power; for unit tests and calibration
};

/** Ambient source names, in enum order. */
inline constexpr EnumName<TraceKind> traceKindNames[] = {
    {TraceKind::RfHome, "RFHome"},
    {TraceKind::Solar, "Solar"},
    {TraceKind::Thermal, "Thermal"},
    {TraceKind::Constant, "Constant"},
};

inline const char *
traceKindName(TraceKind kind)
{
    return enumName<traceKindNames>(kind);
}

/**
 * A power trace: average harvested power (watts) per 10 us interval,
 * addressed by interval index. Traces repeat cyclically so arbitrarily
 * long simulations always have input power defined.
 */
class PowerTrace
{
  public:
    virtual ~PowerTrace() = default;

    /** Average power during interval @p index (wraps cyclically). */
    virtual Watts power(std::uint64_t index) const = 0;

    /** Number of distinct intervals before the trace repeats. */
    virtual std::uint64_t length() const = 0;

    /** Name for reports. */
    virtual const std::string &name() const = 0;

    /** Mean power over one full period. */
    Watts meanPower() const;

    /** Fraction of intervals whose power is within 25% of the mean. */
    double stableFraction() const;
};

/** Trace backed by an explicit sample vector (file loads, tests). */
class VectorTrace : public PowerTrace
{
  public:
    VectorTrace(std::string name, std::vector<Watts> samples);

    Watts power(std::uint64_t index) const override;
    std::uint64_t length() const override;
    const std::string &name() const override { return label; }

  private:
    std::string label;
    std::vector<Watts> samples;
};

/**
 * Build a synthetic trace of @p intervals samples for @p kind, seeded
 * deterministically; @p scale multiplies every sample (capacitor-size
 * sweeps reuse the same shape at different amplitudes).
 */
std::unique_ptr<PowerTrace> makeTrace(TraceKind kind,
                                      std::uint64_t intervals = 200000,
                                      std::uint64_t seed = 0x6b616775,
                                      double scale = 1.0);

/**
 * A trace's harvest per interval in zeptojoules: power(i) times the
 * interval length, rounded once per sample, so the meter's harvest
 * and recharge loops add integers instead of converting watts.
 */
class HarvestTable
{
  public:
    HarvestTable(const PowerTrace &trace, Seconds interval);

    /** Energy harvested in interval @p index (< length()). */
    ZeptoJoules at(std::uint64_t index) const { return perInterval[index]; }

    /** Intervals before the trace repeats. */
    std::uint64_t length() const { return perInterval.size(); }

    /** The trace's name, for reports. */
    const std::string &name() const { return label; }

  private:
    std::string label;
    std::vector<ZeptoJoules> perInterval;
};

/** Harvest tables sharedHarvest() keeps memoised at once. */
constexpr std::size_t sharedTraceSlots = 8;

/**
 * Memoised HarvestTable over makeTrace(): a synthetic trace is a pure
 * function of (kind, intervals, seed, scale), and its table of that
 * and the interval length, so one immutable copy per process serves
 * every run that asks for it. The memo is mutex-guarded and holds the
 * sharedTraceSlots most recently used tables; an evicted table stays
 * alive for as long as a caller still holds it.
 */
std::shared_ptr<const HarvestTable> sharedHarvest(TraceKind kind,
                                                  std::uint64_t intervals,
                                                  std::uint64_t seed,
                                                  double scale,
                                                  Seconds interval);

/** Load a trace from a text file with one average-watt value per line. */
std::unique_ptr<PowerTrace> loadTraceFile(const std::string &path);

} // namespace kagura

#endif // KAGURA_ENERGY_POWER_TRACE_HH
