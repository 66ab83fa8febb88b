/**
 * @file
 * Governor-chain factory: stacks FixedGovernor/ACC, the KaguraGate,
 * and the oracle stages in the canonical order. Lives in the kagura
 * library because this is the lowest layer that sees every concrete
 * governor type (the cache library cannot link against kagura).
 */

#include "cache/chain.hh"

#include "cache/acc.hh"
#include "common/logging.hh"
#include "kagura/kagura.hh"
#include "kagura/oracle.hh"

namespace kagura
{

GovernorChain::GovernorChain() = default;
GovernorChain::GovernorChain(GovernorChain &&) noexcept = default;
GovernorChain &GovernorChain::operator=(GovernorChain &&) noexcept =
    default;
GovernorChain::~GovernorChain() = default;

GovernorChain
makeGovernorChain(const GovernorChainSpec &spec)
{
    GovernorChain chain;
    switch (spec.governor) {
      case GovernorKind::None:
        return chain;
      case GovernorKind::Always:
        chain.fixed = std::make_unique<FixedGovernor>(true);
        chain.head = chain.fixed.get();
        break;
      case GovernorKind::Acc:
        chain.acc = std::make_unique<AccController>();
        chain.head = chain.acc.get();
        break;
    }
    if (spec.kagura) {
        chain.gate =
            std::make_unique<KaguraGate>(*spec.kagura, chain.head);
        chain.head = chain.gate.get();
    }
    switch (spec.oracle) {
      case OracleMode::Off:
        break;
      case OracleMode::Record:
        chain.recorder = std::make_unique<OracleRecorder>(chain.head);
        chain.head = chain.recorder.get();
        break;
      case OracleMode::Replay:
        if (!spec.oracleLog)
            fatal("OracleMode::Replay needs a phase-1 log");
        chain.replayer = std::make_unique<OracleReplayer>(
            *spec.oracleLog, chain.head);
        chain.head = chain.replayer.get();
        break;
    }
    return chain;
}

} // namespace kagura
