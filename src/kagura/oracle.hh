/**
 * @file
 * The ideal intermittence-aware compressor of Section VIII-C: a
 * two-phase oracle. Phase 1 runs the real system and records, per
 * block address, whether each compression produced at least one
 * compression-enabled hit before the block was evicted or lost to a
 * power outage. Phase 2 replays the application and compresses a
 * block only when phase 1 found its compressions beneficial.
 *
 * Replay is keyed by block address (beneficial-fraction majority)
 * rather than by global event index: energy-level divergence between
 * the two phases reorders fill events, and the per-address key is
 * robust to that. This matches the paper's description of the ideal
 * system "adaptively deciding in advance whether to perform each
 * compression based on the recorded outcomes".
 */

#ifndef KAGURA_KAGURA_ORACLE_HH
#define KAGURA_KAGURA_ORACLE_HH

#include <cstdint>

#include "cache/governor.hh"
#include "common/addr_map.hh"

namespace kagura
{

/** Per-address compression outcome tallies from a recording run. */
class OracleLog
{
  public:
    /** Record a beneficial compression of @p addr. */
    void
    addBeneficial(Addr addr)
    {
        ++tallies[addr].beneficial;
    }

    /** Record a useless compression of @p addr. */
    void
    addUseless(Addr addr)
    {
        ++tallies[addr].useless;
    }

    /**
     * Oracle verdict for @p addr: compress iff any of its recorded
     * compressions paid off. Episodes are settled at power-cycle
     * granularity, so even a strongly beneficial block shows useless
     * episodes in cycles where no capacity pressure materialised; a
     * single proven contribution is enough for the upper-bound ideal
     * to keep compressing it, while never-beneficial (streaming /
     * incompressible) blocks are vetoed outright. Unknown addresses
     * return @p fallback.
     */
    bool
    worthCompressing(Addr addr, bool fallback) const
    {
        const Tally *tally = tallies.find(addr);
        if (!tally)
            return fallback;
        if (tally->beneficial > 0)
            return true;
        return tally->useless > 0 ? false : fallback;
    }

    /** Number of distinct addresses with recorded outcomes. */
    std::size_t size() const { return tallies.size(); }

    /**
     * Visit every tally as (addr, beneficial, useless); unordered --
     * serialisers wanting a canonical order must sort by address.
     */
    template <typename Fn>
    void
    forEachTally(Fn &&fn) const
    {
        tallies.forEach([&fn](Addr addr, const Tally &tally) {
            fn(addr, tally.beneficial, tally.useless);
        });
    }

    /** Insert a pre-counted tally (deserialisation). */
    void
    addTally(Addr addr, std::uint32_t beneficial, std::uint32_t useless)
    {
        Tally &t = tallies[addr];
        t.beneficial += beneficial;
        t.useless += useless;
    }

    /** Exact content equality, in any order (codec round-trip tests). */
    bool operator==(const OracleLog &other) const = default;

    /** Fold another log's tallies into this one (per-cache merge). */
    void
    merge(const OracleLog &other)
    {
        other.forEachTally([this](Addr addr, std::uint32_t beneficial,
                                  std::uint32_t useless) {
            addTally(addr, beneficial, useless);
        });
    }

  private:
    struct Tally
    {
        std::uint32_t beneficial = 0;
        std::uint32_t useless = 0;

        bool operator==(const Tally &) const = default;
    };

    AddrMap<Tally> tallies;
};

/**
 * Phase-1 governor: transparent wrapper that lets the inner governor
 * decide while tallying the fate of every compression.
 */
class OracleRecorder : public CompressionGovernor
{
  public:
    explicit OracleRecorder(CompressionGovernor *inner);

    bool shouldCompress(Addr addr) override;
    bool runCompressor(Addr addr) override;
    void noteCompressionEnabledHit(Addr addr) override;
    void noteWastedDecompression(Addr addr) override;
    void noteCompressionContribution(Addr addr) override;
    void noteEviction(Addr addr, bool avoidable) override;
    void noteCompression(Addr addr) override;
    void noteRecompression(Addr addr) override;
    void noteIncompressible(Addr addr) override;
    void noteCompressionDisabledMiss(Addr addr) override;
    void noteCacheCleared() override;

    /** The recorded tallies (consume after the run). */
    const OracleLog &log() const { return outcomes; }

  private:
    /** Close the open compression episode of @p addr as useless. */
    void closePending(Addr addr);

    CompressionGovernor *inner;
    OracleLog outcomes;
    /** Open episodes: address -> has already proven beneficial. */
    AddrMap<bool> pending;
};

/**
 * Phase-2 governor: consults the phase-1 log; the inner governor is
 * still honoured as a veto (the oracle only *removes* compressions).
 */
class OracleReplayer : public CompressionGovernor
{
  public:
    /**
     * @param log Phase-1 tallies.
     * @param inner Wrapped governor (may be nullptr = always compress).
     */
    OracleReplayer(const OracleLog &log, CompressionGovernor *inner);

    bool shouldCompress(Addr addr) override;
    bool runCompressor(Addr addr) override;
    void noteCompressionEnabledHit(Addr addr) override;
    void noteWastedDecompression(Addr addr) override;
    void noteCompressionContribution(Addr addr) override;
    void noteEviction(Addr addr, bool avoidable) override;
    void noteCompression(Addr addr) override;
    void noteRecompression(Addr addr) override;
    void noteIncompressible(Addr addr) override;
    void noteCompressionDisabledMiss(Addr addr) override;
    void noteCacheCleared() override;

    /** Compressions the oracle vetoed so far. */
    std::uint64_t vetoed() const { return vetoCount; }

  private:
    const OracleLog &outcomes;
    CompressionGovernor *inner;
    std::uint64_t vetoCount = 0;
};

} // namespace kagura

#endif // KAGURA_KAGURA_ORACLE_HH
