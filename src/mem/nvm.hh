/**
 * @file
 * Nonvolatile main memory: a functional byte store plus the timing and
 * energy parameters of the selected technology (Table I's ReRAM row by
 * default; PCM and STT-RAM for the Fig. 28 sweep).
 *
 * The bytes live in a SparseBytes store: a 4 KiB page is allocated on
 * its first write and untouched pages read as zero, so building an
 * array of any capacity costs nothing until the workload's image (or a
 * writeback) lands in it.
 *
 * Contents survive power failures by construction -- the object simply
 * persists across the simulator's power state machine, exactly like the
 * physical array would.
 */

#ifndef KAGURA_MEM_NVM_HH
#define KAGURA_MEM_NVM_HH

#include <cstdint>

#include "common/block.hh"
#include "common/types.hh"
#include "energy/energy_model.hh"
#include "hier/mem_level.hh"
#include "mem/sparse_bytes.hh"

namespace kagura
{

/** Nonvolatile main memory model (the hierarchy's terminal level). */
class Nvm : public hier::MemLevel
{
  public:
    /**
     * @param type Technology (ReRAM / PCM / STT-RAM).
     * @param bytes Capacity; addresses are taken modulo this size.
     */
    Nvm(NvmType type, std::uint64_t bytes);

    /** Technology of this array. */
    NvmType type() const { return tech; }

    /** Capacity in bytes. */
    std::uint64_t size() const { return storage.capacity(); }

    /** Timing/energy parameters for this array. */
    const NvmParams &params() const { return timing; }

    /** Copy @p count bytes starting at @p addr into @p dst. */
    void readBytes(Addr addr, std::uint8_t *dst, std::size_t count) const;

    /** Copy @p count bytes from @p src into the array at @p addr. */
    void writeBytes(Addr addr, const std::uint8_t *src, std::size_t count);

    /** Read a whole block at @p addr into @p dst (allocation-free). */
    void readBlock(Addr addr, MutByteSpan dst) const;

    /** Number of block reads served (functional statistic). */
    std::uint64_t blockReads() const { return reads; }

    /** Number of block writes served (functional statistic). */
    std::uint64_t blockWrites() const { return writes; }

    /** Account one block read (called by the cache on fills). */
    void noteBlockRead() { ++reads; }

    /** Account one block write (called by the cache on writebacks). */
    void noteBlockWrite() { ++writes; }

    // --- hier::MemLevel (the terminal level) -----------------------------

    /** Block fill: read + account + charge the array's read latency. */
    void fetchBlock(Addr base, MutByteSpan dst, hier::LevelEvents &ev,
                    Cycles now) override;

    /** Block writeback: persist + account (no latency; store-buffered). */
    void absorbBlock(Addr base, ConstByteSpan src, hier::LevelEvents &ev,
                     Cycles now) override;

    const char *levelName() const override { return "nvm"; }

  private:
    NvmType tech;
    NvmParams timing;
    SparseBytes storage;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

} // namespace kagura

#endif // KAGURA_MEM_NVM_HH
