/**
 * @file
 * The per-cache compression-governor chain and its factory. Each cache
 * controller owns a private chain of stacked governors (innermost
 * first):
 *
 *   FixedGovernor | AccController  -> KaguraGate -> OracleRecorder
 *                                                 | OracleReplayer
 *
 * The cache consumes only the chain head; the chain owns every stage.
 * The struct lives here (the cache layer) so Cache construction sites
 * can hold chains without seeing the concrete governor types; the
 * factory is implemented in src/kagura/chain.cc, which is the lowest
 * layer that can name ACC, Kagura, and the oracle together without a
 * library cycle.
 */

#ifndef KAGURA_CACHE_CHAIN_HH
#define KAGURA_CACHE_CHAIN_HH

#include <memory>

#include "cache/governor.hh"
#include "common/spelling.hh"

namespace kagura
{

class AccController;
class KaguraController;
class KaguraGate;
class OracleRecorder;
class OracleReplayer;
class OracleLog;

/** Which compression policy drives the caches. */
enum class GovernorKind
{
    None,   ///< no compressor at all (the paper's baseline)
    Always, ///< compress unconditionally (plain BDI/FPC/...)
    Acc,    ///< adaptive compression via the GCP [10]
};

/** Governor names, in enum order. */
inline constexpr EnumName<GovernorKind> governorKindNames[] = {
    {GovernorKind::None, "none"},
    {GovernorKind::Always, "always"},
    {GovernorKind::Acc, "ACC"},
};

inline const char *
governorKindName(GovernorKind kind)
{
    return enumName<governorKindNames>(kind);
}

/** How the ideal-oracle two-phase methodology is engaged. */
enum class OracleMode
{
    Off,
    Record, ///< phase 1: tally per-block compression outcomes
    Replay, ///< phase 2: veto compressions the log deems useless
};

/**
 * OracleMode spellings. The canonical key spells a mode by its
 * ordinal ("oracle.mode=1"): that line predates the name tables.
 */
inline constexpr EnumName<OracleMode> oracleModeOrdinals[] = {
    {OracleMode::Off, "0"},
    {OracleMode::Record, "1"},
    {OracleMode::Replay, "2"},
};

/** One cache's governor chain (each cache has its own ACC GCP). */
struct GovernorChain
{
    GovernorChain();
    GovernorChain(GovernorChain &&) noexcept;
    GovernorChain &operator=(GovernorChain &&) noexcept;
    ~GovernorChain();

    std::unique_ptr<AccController> acc;
    std::unique_ptr<FixedGovernor> fixed;
    std::unique_ptr<KaguraGate> gate;
    std::unique_ptr<OracleRecorder> recorder;
    std::unique_ptr<OracleReplayer> replayer;

    /** Outermost stage; what the cache consults. Null = no governor. */
    CompressionGovernor *head = nullptr;
};

/** Everything the chain factory needs to know. */
struct GovernorChainSpec
{
    GovernorKind governor = GovernorKind::None;
    OracleMode oracle = OracleMode::Off;

    /** Shared core-level Kagura state; null = no KaguraGate stage. */
    KaguraController *kagura = nullptr;

    /** Phase-1 log (required when oracle == OracleMode::Replay). */
    const OracleLog *oracleLog = nullptr;
};

/** Build one cache's chain. */
GovernorChain makeGovernorChain(const GovernorChainSpec &spec);

} // namespace kagura

#endif // KAGURA_CACHE_CHAIN_HH
