#include "energy/power_trace.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/logging.hh"
#include "common/rng.hh"

namespace kagura
{

Watts
PowerTrace::meanPower() const
{
    const std::uint64_t n = length();
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i)
        sum += power(i);
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
PowerTrace::stableFraction() const
{
    const std::uint64_t n = length();
    if (n == 0)
        return 0.0;
    const double mean = meanPower();
    std::uint64_t stable = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (std::abs(power(i) - mean) <= 0.25 * mean)
            ++stable;
    }
    return static_cast<double>(stable) / static_cast<double>(n);
}

VectorTrace::VectorTrace(std::string name, std::vector<Watts> samples_)
    : label(std::move(name)), samples(std::move(samples_))
{
    if (samples.empty())
        fatal("power trace '%s' has no samples", label.c_str());
}

Watts
VectorTrace::power(std::uint64_t index) const
{
    return samples[index % samples.size()];
}

std::uint64_t
VectorTrace::length() const
{
    return samples.size();
}

namespace
{

/**
 * RFHome-style generator: a weak ambient floor with two-state (lull /
 * burst) Markov switching, modelling an RF harvester that sees strong
 * input only when the transmitter duty-cycles near the device.
 */
std::vector<Watts>
genRfHome(std::uint64_t intervals, std::uint64_t seed, double scale)
{
    Rng rng(mixSeeds(seed, 0x7266686f6d65ULL));
    std::vector<Watts> out(intervals);
    bool burst = false;
    double envelope = 1.0;
    for (std::uint64_t i = 0; i < intervals; ++i) {
        // Slow multipath-fading envelope.
        if (i % 256 == 0)
            envelope = 0.5 + rng.real();
        // Burst arrival/departure (mean lull ~4 ms, burst ~1.5 ms).
        if (burst)
            burst = !rng.chance(1.0 / 150.0);
        else
            burst = rng.chance(1.0 / 400.0);
        double floor_w = 20e-6 * (0.7 + 0.6 * rng.real());
        double burst_w = burst ? 120e-6 * envelope * (0.6 + 0.8 * rng.real())
                               : 0.0;
        out[i] = scale * (floor_w + burst_w);
    }
    return out;
}

/**
 * Solar-style generator: strong, slowly varying irradiance with a
 * sinusoidal envelope (cloud passes as multiplicative dips).
 */
std::vector<Watts>
genSolar(std::uint64_t intervals, std::uint64_t seed, double scale)
{
    Rng rng(mixSeeds(seed, 0x736f6c6172ULL));
    std::vector<Watts> out(intervals);
    double cloud = 1.0;
    for (std::uint64_t i = 0; i < intervals; ++i) {
        double phase = static_cast<double>(i) /
                       static_cast<double>(intervals) * 2.0 * M_PI;
        double envelope = 0.75 + 0.25 * std::sin(phase);
        if (i % 512 == 0)
            cloud = rng.chance(0.15) ? 0.35 + 0.3 * rng.real() : 1.0;
        double noise = 0.95 + 0.1 * rng.real();
        out[i] = scale * 48e-6 * envelope * cloud * noise;
    }
    return out;
}

/**
 * Thermal-style generator: moderate amplitude with low variance; a TEG
 * across a slowly drifting temperature gradient.
 */
std::vector<Watts>
genThermal(std::uint64_t intervals, std::uint64_t seed, double scale)
{
    Rng rng(mixSeeds(seed, 0x746865726dULL));
    std::vector<Watts> out(intervals);
    double gradient = 1.0;
    for (std::uint64_t i = 0; i < intervals; ++i) {
        // Random-walk drift of the thermal gradient, tightly bounded.
        gradient += (rng.real() - 0.5) * 0.004;
        if (gradient < 0.85)
            gradient = 0.85;
        if (gradient > 1.15)
            gradient = 1.15;
        double noise = 0.97 + 0.06 * rng.real();
        out[i] = scale * 38e-6 * gradient * noise;
    }
    return out;
}

} // namespace

std::unique_ptr<PowerTrace>
makeTrace(TraceKind kind, std::uint64_t intervals, std::uint64_t seed,
          double scale)
{
    if (intervals == 0)
        fatal("power trace needs at least one interval");
    const char *name = traceKindName(kind);
    switch (kind) {
      case TraceKind::RfHome:
        return std::make_unique<VectorTrace>(
            name, genRfHome(intervals, seed, scale));
      case TraceKind::Solar:
        return std::make_unique<VectorTrace>(
            name, genSolar(intervals, seed, scale));
      case TraceKind::Thermal:
        return std::make_unique<VectorTrace>(
            name, genThermal(intervals, seed, scale));
      case TraceKind::Constant:
        return std::make_unique<VectorTrace>(
            name, std::vector<Watts>(intervals, 40e-6 * scale));
    }
    panic("unknown TraceKind %d", static_cast<int>(kind));
}

HarvestTable::HarvestTable(const PowerTrace &trace, Seconds interval)
    : label(trace.name()), perInterval(trace.length())
{
    for (std::uint64_t i = 0; i < perInterval.size(); ++i)
        perInterval[i] = joulesToZepto(trace.power(i) * interval);
}

std::shared_ptr<const HarvestTable>
sharedHarvest(TraceKind kind, std::uint64_t intervals, std::uint64_t seed,
              double scale, Seconds interval)
{
    struct Entry
    {
        TraceKind kind = TraceKind::RfHome;
        std::uint64_t intervals = 0;
        std::uint64_t seed = 0;
        /** The scale's bits: -0.0 and 0.0 give different samples. */
        std::uint64_t scaleBits = 0;
        std::uint64_t intervalBits = 0;
        std::uint64_t lastUse = 0;
        std::shared_ptr<const HarvestTable> table;
    };
    // Process-wide mutable state shared by concurrent runner workers,
    // serialised like cachedWorkload's memo.
    static std::mutex mutex;
    static std::array<Entry, sharedTraceSlots> memo;
    static std::uint64_t useClock = 0;

    const auto scale_bits = std::bit_cast<std::uint64_t>(scale);
    const auto interval_bits = std::bit_cast<std::uint64_t>(interval);
    std::lock_guard<std::mutex> lock(mutex);
    Entry *victim = &memo.front();
    for (Entry &entry : memo) {
        if (entry.table && entry.kind == kind &&
            entry.intervals == intervals && entry.seed == seed &&
            entry.scaleBits == scale_bits &&
            entry.intervalBits == interval_bits) {
            entry.lastUse = ++useClock;
            return entry.table;
        }
        if (entry.lastUse < victim->lastUse)
            victim = &entry;
    }
    *victim = Entry{kind,
                    intervals,
                    seed,
                    scale_bits,
                    interval_bits,
                    ++useClock,
                    std::make_shared<const HarvestTable>(
                        *makeTrace(kind, intervals, seed, scale), interval)};
    return victim->table;
}

std::unique_ptr<PowerTrace>
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open power trace file '%s'", path.c_str());
    std::vector<Watts> samples;
    double value = 0.0;
    while (in >> value)
        samples.push_back(value);
    if (samples.empty())
        fatal("power trace file '%s' contains no samples", path.c_str());
    return std::make_unique<VectorTrace>(path, std::move(samples));
}

} // namespace kagura
