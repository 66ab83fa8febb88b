/**
 * @file
 * ChampSim-format trace ingestion: convert an (uncompressed) ChampSim
 * input trace into kagura.trace/v1 so externally captured workloads
 * replay through the same simulator path as the synthetic kernels.
 *
 * A ChampSim input record is the fixed 64-byte struct used by the
 * tracer and the compressed-ChampSim work this repo references:
 *
 *   u64 ip;                     // instruction pointer
 *   u8  is_branch, branch_taken;
 *   u8  destination_registers[2];
 *   u8  source_registers[4];
 *   u64 destination_memory[2];  // store addresses (0 = unused slot)
 *   u64 source_memory[4];       // load addresses  (0 = unused slot)
 *
 * Mapping onto our micro-op model (assumptions documented in
 * docs/TRACE.md):
 *  - every record contributes one committed ALU instruction whose PC
 *    is the record's ip remapped into a compact code window;
 *  - each nonzero source_memory slot becomes an 8-byte load, each
 *    nonzero destination_memory slot an 8-byte store, with data
 *    addresses remapped into a compact data window;
 *  - ChampSim traces carry no data values, so store values are
 *    synthesised deterministically from (address, record index) --
 *    replays are reproducible but data-dependent compression on
 *    converted traces reflects synthetic, not captured, contents;
 *  - the initial memory image is empty (NVM starts zeroed).
 */

#ifndef KAGURA_TRACE_CHAMPSIM_HH
#define KAGURA_TRACE_CHAMPSIM_HH

#include <cstdint>
#include <string>

namespace kagura
{
namespace trace
{

/** Knobs for convertChampSim(). */
struct ChampSimConvertOptions
{
    /** Workload name stored in the output trace. */
    std::string name = "champsim";

    /** Stop after this many input records (0 = whole file). */
    std::uint64_t maxRecords = 0;

    /**
     * Power-of-two window sizes the ip / data addresses are folded
     * into, so converted traces fit the embedded platform's NVM
     * (default 16 MiB). Folding preserves block/set locality.
     */
    std::uint64_t codeWindowBytes = 1ULL << 20;
    std::uint64_t dataWindowBytes = 4ULL << 20;

    /**
     * Base addresses of the two windows in our address space. The
     * code window must end at or below 2^32 (the PC's width).
     */
    std::uint64_t codeBase = 0x8000;
    std::uint64_t dataBase = 0x100000;
};

/** What a conversion produced (for CLI/report output). */
struct ChampSimConvertStats
{
    std::uint64_t records = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
};

/**
 * Convert the ChampSim trace at @p in_path into a kagura.trace/v1
 * file at @p out_path. Fatal on a window that is not a power of two
 * or a code window past 2^32, on I/O failure, on a trailing partial
 * record, or on an empty input.
 */
ChampSimConvertStats convertChampSim(const std::string &in_path,
                                     const std::string &out_path,
                                     const ChampSimConvertOptions &opts);

} // namespace trace
} // namespace kagura

#endif // KAGURA_TRACE_CHAMPSIM_HH
