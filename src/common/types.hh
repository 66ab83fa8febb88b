/**
 * @file
 * Fundamental scalar types shared by every subsystem of the Kagura
 * simulator: addresses, cycle counts, and energy quantities.
 *
 * All energy bookkeeping uses picojoules held in double precision; at the
 * scales this simulator covers (pJ per event, uJ per power cycle, mJ per
 * run) a double keeps far more than enough significand.
 */

#ifndef KAGURA_COMMON_TYPES_HH
#define KAGURA_COMMON_TYPES_HH

#include <cstdint>

namespace kagura
{

/** Byte address in the (nonvolatile) physical address space. */
using Addr = std::uint64_t;

/** Count of core clock cycles (200 MHz by default, 5 ns per cycle). */
using Cycles = std::uint64_t;

/** Energy in picojoules. */
using PicoJoules = double;

/** Power in watts (used for harvest traces and leakage). */
using Watts = double;

/** Seconds, used when converting between trace intervals and cycles. */
using Seconds = double;

/** Convert picojoules to joules. */
constexpr double
picoToJoules(PicoJoules pj)
{
    return pj * 1e-12;
}

/** Convert joules to picojoules. */
constexpr PicoJoules
joulesToPico(double joules)
{
    return joules * 1e12;
}

/** Integer ceiling division for sizing segment/beat counts. */
constexpr std::uint64_t
ceilDiv(std::uint64_t num, std::uint64_t den)
{
    return (num + den - 1) / den;
}

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2 for power-of-two operands (index math for sets). */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned log = 0;
    while (v > 1) {
        v >>= 1;
        ++log;
    }
    return log;
}

/**
 * Splits a block number into its set (`block % sets`) and its line
 * within the set (`block / sets`). A power-of-two set count -- every
 * Table I, sweep and L2 geometry -- takes a mask and a shift instead
 * of the divisions; other counts keep them.
 */
class SetSplit
{
  public:
    explicit SetSplit(unsigned sets)
        : count(sets), pow2(isPowerOfTwo(sets)),
          shift(pow2 ? floorLog2(sets) : 0)
    {
    }

    /** block % sets. */
    unsigned
    set(std::uint64_t block) const
    {
        return static_cast<unsigned>(pow2 ? block & (count - 1)
                                          : block % count);
    }

    /** block / sets. */
    std::uint64_t
    line(std::uint64_t block) const
    {
        return pow2 ? block >> shift : block / count;
    }

  private:
    std::uint64_t count;
    bool pow2;
    unsigned shift;
};

} // namespace kagura

#endif // KAGURA_COMMON_TYPES_HH
