#include "trace/champsim.hh"

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "core/workload.hh"
#include "trace/trace_writer.hh"

namespace kagura
{
namespace trace
{

namespace
{

/** The fixed 64-byte ChampSim input record (see champsim.hh). */
constexpr std::size_t recordBytes = 64;
constexpr unsigned numDestinations = 2;
constexpr unsigned numSources = 4;

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Fold @p addr into a power-of-two window at @p base, 8-aligned. */
Addr
foldAddress(std::uint64_t addr, std::uint64_t window, std::uint64_t base)
{
    return base + ((addr & (window - 1)) & ~7ULL);
}

} // namespace

ChampSimConvertStats
convertChampSim(const std::string &in_path, const std::string &out_path,
                const ChampSimConvertOptions &opts)
{
    if (!isPowerOfTwo(opts.codeWindowBytes) ||
        !isPowerOfTwo(opts.dataWindowBytes))
        fatal("ChampSim conversion windows must be powers of two");
    // Every folded PC lies below codeBase + codeWindowBytes, and a PC
    // must fit the modelled core's 32-bit address space.
    if (opts.codeWindowBytes > maxPc + 1 ||
        opts.codeBase > maxPc + 1 - opts.codeWindowBytes)
        fatal("ChampSim code window of %#llx bytes at %#llx ends past "
              "the core's 32-bit address space",
              static_cast<unsigned long long>(opts.codeWindowBytes),
              static_cast<unsigned long long>(opts.codeBase));

    std::FILE *in = std::fopen(in_path.c_str(), "rb");
    if (!in)
        fatal("cannot open ChampSim trace '%s'", in_path.c_str());

    TraceWriter writer(out_path, opts.name);
    ChampSimConvertStats stats;

    unsigned char record[recordBytes];
    while (opts.maxRecords == 0 || stats.records < opts.maxRecords) {
        const std::size_t n = std::fread(record, 1, recordBytes, in);
        if (n == 0)
            break;
        if (n != recordBytes) {
            std::fclose(in);
            fatal("'%s' ends mid-record after %llu records (not an "
                  "uncompressed ChampSim trace?)",
                  in_path.c_str(),
                  static_cast<unsigned long long>(stats.records));
        }

        const std::uint64_t ip = getU64(record);
        const bool is_branch = record[8] != 0;
        if (is_branch)
            ++stats.branches;

        // One committed instruction per record. The folded ip keeps
        // the icache stream's locality; op.count carries no fetch
        // semantics beyond "count back-to-back instructions", so a
        // single-instruction ALU group per record is exact.
        MicroOp alu;
        alu.type = MicroOp::Type::Alu;
        alu.count = 1;
        alu.pc = static_cast<std::uint32_t>(
            foldAddress(ip, opts.codeWindowBytes, opts.codeBase) |
            (ip & 4)); // keep 4-byte slot parity within the pair
        writer.append(alu);

        // destination_memory lives at offset 16, source_memory at 32.
        for (unsigned s = 0; s < numSources; ++s) {
            const std::uint64_t addr = getU64(record + 32 + 8 * s);
            if (addr == 0)
                continue;
            MicroOp load;
            load.type = MicroOp::Type::Load;
            load.size = 8;
            load.pc = alu.pc;
            load.addr = foldAddress(addr, opts.dataWindowBytes,
                                    opts.dataBase);
            writer.append(load);
            ++stats.loads;
        }
        for (unsigned d = 0; d < numDestinations; ++d) {
            const std::uint64_t addr = getU64(record + 16 + 8 * d);
            if (addr == 0)
                continue;
            MicroOp store;
            store.type = MicroOp::Type::Store;
            store.size = 8;
            store.pc = alu.pc;
            store.addr = foldAddress(addr, opts.dataWindowBytes,
                                     opts.dataBase);
            // ChampSim records carry no data; synthesise a
            // deterministic value so replays are reproducible.
            std::uint64_t mix = store.addr ^ (stats.records * 0x9e37ULL);
            store.value = splitMix64(mix);
            writer.append(store);
            ++stats.stores;
        }
        ++stats.records;
    }

    if (std::ferror(in)) {
        std::fclose(in);
        fatal("I/O error reading ChampSim trace '%s'", in_path.c_str());
    }
    std::fclose(in);
    if (stats.records == 0)
        fatal("'%s' contains no ChampSim records", in_path.c_str());

    writer.finish();
    return stats;
}

} // namespace trace
} // namespace kagura
