#include "kagura/oracle.hh"

namespace kagura
{

OracleRecorder::OracleRecorder(CompressionGovernor *inner_) : inner(inner_)
{
}

bool
OracleRecorder::shouldCompress(Addr addr)
{
    return inner ? inner->shouldCompress(addr) : true;
}

bool
OracleRecorder::runCompressor(Addr addr)
{
    return inner ? inner->runCompressor(addr) : true;
}

void
OracleRecorder::noteCompression(Addr addr)
{
    // A new compression episode opens for this block. If one was
    // already open (recompression after a store), settle it first.
    if (bool *beneficial = pending.find(addr)) {
        if (*beneficial)
            outcomes.addBeneficial(addr);
        else
            outcomes.addUseless(addr);
        *beneficial = false;
    } else {
        pending[addr] = false;
    }
    if (inner)
        inner->noteCompression(addr);
}

void
OracleRecorder::noteCompressionEnabledHit(Addr addr)
{
    if (bool *beneficial = pending.find(addr))
        *beneficial = true;
    if (inner)
        inner->noteCompressionEnabledHit(addr);
}

void
OracleRecorder::noteWastedDecompression(Addr addr)
{
    if (inner)
        inner->noteWastedDecompression(addr);
}

void
OracleRecorder::noteCompressionContribution(Addr addr)
{
    // The block's compression helped create the capacity behind a
    // compression-enabled hit: its open episode is beneficial.
    if (bool *beneficial = pending.find(addr))
        *beneficial = true;
    if (inner)
        inner->noteCompressionContribution(addr);
}

void
OracleRecorder::noteEviction(Addr addr, bool avoidable)
{
    closePending(addr);
    if (inner)
        inner->noteEviction(addr, avoidable);
}

void
OracleRecorder::noteRecompression(Addr addr)
{
    if (inner)
        inner->noteRecompression(addr);
}

void
OracleRecorder::noteIncompressible(Addr addr)
{
    // An incompressible attempt can never pay off: tally it as
    // useless so the replay skips the block entirely.
    outcomes.addUseless(addr);
    pending.erase(addr);
    if (inner)
        inner->noteIncompressible(addr);
}

void
OracleRecorder::noteCompressionDisabledMiss(Addr addr)
{
    if (inner)
        inner->noteCompressionDisabledMiss(addr);
}

void
OracleRecorder::noteCacheCleared()
{
    // Power failure (or full flush): every open episode settles with
    // whatever benefit it accumulated -- blocks compressed but never
    // re-used before the outage are exactly the "useless compressions"
    // of Section IV.
    pending.forEach([this](Addr addr, bool beneficial) {
        if (beneficial)
            outcomes.addBeneficial(addr);
        else
            outcomes.addUseless(addr);
    });
    pending.clear();
    if (inner)
        inner->noteCacheCleared();
}

void
OracleRecorder::closePending(Addr addr)
{
    const bool *beneficial = pending.find(addr);
    if (!beneficial)
        return;
    if (*beneficial)
        outcomes.addBeneficial(addr);
    else
        outcomes.addUseless(addr);
    pending.erase(addr);
}

OracleReplayer::OracleReplayer(const OracleLog &log,
                               CompressionGovernor *inner_)
    : outcomes(log), inner(inner_)
{
}

bool
OracleReplayer::runCompressor(Addr addr)
{
    // The ideal system knows in advance that a vetoed block's
    // compression is useless, so it does not even engage the datapath.
    if (!outcomes.worthCompressing(addr, true))
        return false;
    return inner ? inner->runCompressor(addr) : true;
}

bool
OracleReplayer::shouldCompress(Addr addr)
{
    if (inner && !inner->shouldCompress(addr))
        return false;
    if (!outcomes.worthCompressing(addr, true)) {
        ++vetoCount;
        return false;
    }
    return true;
}

void
OracleReplayer::noteCompressionEnabledHit(Addr addr)
{
    if (inner)
        inner->noteCompressionEnabledHit(addr);
}

void
OracleReplayer::noteWastedDecompression(Addr addr)
{
    if (inner)
        inner->noteWastedDecompression(addr);
}

void
OracleReplayer::noteCompressionContribution(Addr addr)
{
    if (inner)
        inner->noteCompressionContribution(addr);
}

void
OracleReplayer::noteEviction(Addr addr, bool avoidable)
{
    if (inner)
        inner->noteEviction(addr, avoidable);
}

void
OracleReplayer::noteCompression(Addr addr)
{
    if (inner)
        inner->noteCompression(addr);
}

void
OracleReplayer::noteRecompression(Addr addr)
{
    if (inner)
        inner->noteRecompression(addr);
}

void
OracleReplayer::noteIncompressible(Addr addr)
{
    if (inner)
        inner->noteIncompressible(addr);
}

void
OracleReplayer::noteCompressionDisabledMiss(Addr addr)
{
    if (inner)
        inner->noteCompressionDisabledMiss(addr);
}

void
OracleReplayer::noteCacheCleared()
{
    if (inner)
        inner->noteCacheCleared();
}

} // namespace kagura
