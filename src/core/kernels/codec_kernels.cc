/**
 * @file
 * Speech-codec kernels: IMA ADPCM encode/decode and a G.721-style
 * table-driven ADPCM pair. Input audio is a deterministic sine +
 * noise mixture; samples have small neighbouring deltas, so blocks
 * compress well under BDI/FPC, as real PCM audio does.
 */

#include "core/kernels/kernels.hh"

#include <array>
#include <cmath>
#include <cstdint>

#include "common/rng.hh"

namespace kagura
{
namespace kernels
{

namespace
{

/** IMA ADPCM step-size table (89 entries). */
const std::array<std::uint16_t, 89> &
imaStepTable()
{
    static const std::array<std::uint16_t, 89> table = [] {
        std::array<std::uint16_t, 89> t{};
        double step = 7.0;
        for (std::size_t i = 0; i < t.size(); ++i) {
            t[i] = static_cast<std::uint16_t>(step);
            step *= 1.1;
            if (step > 32767)
                step = 32767;
        }
        return t;
    }();
    return table;
}

/** IMA ADPCM index adjustment table. */
constexpr std::array<std::int8_t, 16> imaIndexTable = {
    -1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8,
};

/** Deterministic 16-bit test audio: two tones plus dither. */
std::int16_t
audioSample(std::size_t i, Rng &rng)
{
    const double t = static_cast<double>(i);
    const double tone = 6000.0 * std::sin(t * 0.031) +
                        2500.0 * std::sin(t * 0.0071);
    const double dither = static_cast<double>(rng.below(33)) - 16.0;
    return static_cast<std::int16_t>(tone + dither);
}

/** Shared scaffold for the two IMA kernels. */
struct ImaLayout
{
    Addr stepTable;
    Addr indexTable;
    Addr pcm;
    Addr codes;
    Addr state;
    std::size_t samples;
};

ImaLayout
layoutIma(TraceRecorder &rec, std::size_t samples, bool init_pcm,
          std::uint64_t seed)
{
    ImaLayout lay{};
    lay.samples = samples;
    lay.stepTable = rec.allocate(imaStepTable().size() * 4);
    lay.indexTable = rec.allocate(imaIndexTable.size());
    lay.pcm = rec.allocate(samples * 2);
    lay.codes = rec.allocate(samples / 2 + 1);
    lay.state = rec.allocate(16);

    // Step table entries are C `int`s in the reference codec: 32-bit
    // fields holding <=15-bit magnitudes, the classic FPC/BDI payload.
    for (std::size_t i = 0; i < imaStepTable().size(); ++i)
        rec.initValue(lay.stepTable + 4 * i, imaStepTable()[i], 4);
    for (std::size_t i = 0; i < imaIndexTable.size(); ++i)
        rec.initValue(lay.indexTable + i,
                      static_cast<std::uint8_t>(imaIndexTable[i]), 1);
    if (init_pcm) {
        Rng rng(seed);
        for (std::size_t i = 0; i < samples; ++i)
            rec.initValue(lay.pcm + 2 * i,
                          static_cast<std::uint16_t>(audioSample(i, rng)),
                          2);
    }
    rec.initValue(lay.state, 0, 4);     // predictor
    rec.initValue(lay.state + 4, 0, 4); // step index
    return lay;
}

/** One IMA encode step in host arithmetic; returns the 4-bit code. */
unsigned
imaEncodeStep(int sample, int &predictor, int &index, int step)
{
    int diff = sample - predictor;
    unsigned code = 0;
    if (diff < 0) {
        code = 8;
        diff = -diff;
    }
    int temp_step = step;
    if (diff >= temp_step) {
        code |= 4;
        diff -= temp_step;
    }
    temp_step >>= 1;
    if (diff >= temp_step) {
        code |= 2;
        diff -= temp_step;
    }
    temp_step >>= 1;
    if (diff >= temp_step)
        code |= 1;
    // Reconstruct predictor exactly as the decoder will.
    int diffq = step >> 3;
    if (code & 4)
        diffq += step;
    if (code & 2)
        diffq += step >> 1;
    if (code & 1)
        diffq += step >> 2;
    predictor += (code & 8) ? -diffq : diffq;
    predictor = std::min(32767, std::max(-32768, predictor));
    index += imaIndexTable[code];
    index = std::min(88, std::max(0, index));
    return code;
}

/** One IMA decode step in host arithmetic; returns the sample. */
int
imaDecodeStep(unsigned code, int &predictor, int &index, int step)
{
    int diffq = step >> 3;
    if (code & 4)
        diffq += step;
    if (code & 2)
        diffq += step >> 1;
    if (code & 1)
        diffq += step >> 2;
    predictor += (code & 8) ? -diffq : diffq;
    predictor = std::min(32767, std::max(-32768, predictor));
    index += imaIndexTable[code];
    index = std::min(88, std::max(0, index));
    return predictor;
}

} // namespace

Workload
adpcmC()
{
    TraceRecorder rec;
    const std::size_t samples = 9000;
    ImaLayout lay = layoutIma(rec, samples, true, 0xada11);

    int predictor = 0;
    int index = 0;
    unsigned packed = 0;

    rec.beginLoop();
    for (std::size_t i = 0; i < samples; ++i) {
        const auto sample = static_cast<std::int16_t>(
            rec.load(lay.pcm + 2 * i, 2));
        const int step =
            static_cast<int>(rec.load(lay.stepTable + 4 *
                                      static_cast<unsigned>(index), 4));
        rec.alu(14); // sign/magnitude split, 3 compare-subtract stages
        const unsigned code = imaEncodeStep(sample, predictor, index, step);
        rec.load(lay.indexTable + (code & 0xf), 1);
        rec.alu(5); // predictor clamp + index clamp
        if (i % 2 == 0) {
            packed = code;
        } else {
            packed |= code << 4;
            rec.store(lay.codes + i / 2,
                      static_cast<std::uint8_t>(packed), 1);
        }
        rec.endIteration();
    }
    rec.endLoop();

    // Spill the codec state like the real library's epilogue does.
    rec.store(lay.state, static_cast<std::uint32_t>(predictor), 4);
    rec.store(lay.state + 4, static_cast<std::uint32_t>(index), 4);
    return rec.finish("adpcm_c");
}

Workload
adpcmD()
{
    TraceRecorder rec;
    const std::size_t samples = 9000;
    ImaLayout lay = layoutIma(rec, samples, false, 0);

    // Pre-populate the code stream (the encoder's output) as the
    // initial image: run the encoder silently on the host.
    {
        Rng rng(0xada11);
        int predictor = 0;
        int index = 0;
        unsigned packed = 0;
        for (std::size_t i = 0; i < samples; ++i) {
            const int step = imaStepTable()[index];
            const unsigned code = imaEncodeStep(audioSample(i, rng),
                                                predictor, index, step);
            if (i % 2 == 0) {
                packed = code;
            } else {
                packed |= code << 4;
                rec.initValue(lay.codes + i / 2, packed, 1);
            }
        }
    }

    int predictor = 0;
    int index = 0;
    unsigned packed_byte = 0;
    rec.beginLoop();
    for (std::size_t i = 0; i < samples; ++i) {
        if (i % 2 == 0)
            packed_byte = static_cast<unsigned>(
                rec.load(lay.codes + i / 2, 1));
        const unsigned code = (i % 2 == 0) ? (packed_byte & 0xf)
                                           : (packed_byte >> 4) & 0xf;
        const int step =
            static_cast<int>(rec.load(lay.stepTable + 4 *
                                      static_cast<unsigned>(index), 4));
        rec.alu(9); // diffq accumulation + sign
        const int sample = imaDecodeStep(code, predictor, index, step);
        rec.load(lay.indexTable + (code & 0xf), 1);
        rec.alu(4); // clamps
        rec.store(lay.pcm + 2 * i, static_cast<std::uint16_t>(sample), 2);
        rec.endIteration();
    }
    rec.endLoop();
    return rec.finish("adpcm_d");
}

namespace
{

/** Layout shared by the G.721-style pair. */
struct G721Layout
{
    Addr quantTable; ///< 64 x u16 quantiser decision levels
    Addr dequant;    ///< 64 x u16 reconstruction levels
    Addr wTable;     ///< 64 x u16 adaptation weights
    Addr pcm;
    Addr codes;
    std::size_t samples;
};

G721Layout
layoutG721(TraceRecorder &rec, std::size_t samples, bool init_pcm)
{
    G721Layout lay{};
    lay.samples = samples;
    lay.quantTable = rec.allocate(64 * 4);
    lay.dequant = rec.allocate(64 * 4);
    lay.wTable = rec.allocate(64 * 4);
    lay.pcm = rec.allocate(samples * 2);
    lay.codes = rec.allocate(samples);

    // Table entries are C `int`s (32-bit) in the reference codec.
    // Decision/reconstruction levels span a wide dynamic range (the
    // upper entries exceed 16 bits), so only part of the tables is
    // FPC/BDI-friendly -- as in the real fixed-point G.721 tables.
    for (unsigned i = 0; i < 64; ++i) {
        rec.initValue(lay.quantTable + 4 * i, i * i * 48 + 900, 4);
        rec.initValue(lay.dequant + 4 * i, i * i * 48 + 450, 4);
        rec.initValue(lay.wTable + 4 * i, 8 + i * 3, 4);
    }
    if (init_pcm) {
        Rng rng(0xc721);
        // Reference G.721 code carries samples as C `int`s.
        for (std::size_t i = 0; i < samples; ++i)
            rec.initValue(
                lay.pcm + 4 * i,
                static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(audioSample(i, rng))),
                4);
    }
    return lay;
}

/** Shared predictive quantiser step (both directions use it). */
unsigned
g721Quantise(int sample, int &estimate, int &scale,
             const TraceRecorder &rec, const G721Layout &lay)
{
    const int diff = sample - estimate;
    const int mag = diff < 0 ? -diff : diff;
    // Binary search over 6 decision levels (the recorded loads below
    // model the table walk).
    unsigned code = 0;
    for (unsigned step = 32; step > 0; step >>= 1) {
        const int level = static_cast<int>(
            rec.peek(lay.quantTable + 4 * ((code | step) - 1), 4));
        // mag * 12 wraps modulo 2^32 as the target's int multiply
        // does (computed unsigned, so the wrap is defined).
        const auto mag12 = static_cast<int>(
            static_cast<unsigned>(mag) * 12u);
        if (mag12 >= level * scale / 16)
            code |= step;
    }
    if (code > 63)
        code = 63;
    const int recon = static_cast<int>(
                          rec.peek(lay.dequant + 4 * code, 4)) *
                      scale / 16;
    estimate += diff < 0 ? -recon : recon;
    estimate = std::min(32767, std::max(-32768, estimate));
    const int weight =
        static_cast<int>(rec.peek(lay.wTable + 4 * code, 4));
    scale += (weight - scale) / 8;
    scale = std::min(4096, std::max(4, scale));
    return code | (diff < 0 ? 0x40u : 0u);
}

} // namespace

Workload
g721e()
{
    TraceRecorder rec;
    const std::size_t samples = 7000;
    G721Layout lay = layoutG721(rec, samples, true);

    int estimate = 0;
    int scale = 16;
    rec.beginLoop();
    for (std::size_t i = 0; i < samples; ++i) {
        const auto sample = static_cast<std::int32_t>(
            rec.load(lay.pcm + 4 * i, 4));
        // 6-level decision walk: one table load + compare per level.
        unsigned probe = 0;
        for (unsigned step = 32; step > 0; step >>= 1) {
            rec.load(lay.quantTable + 4 * ((probe | step) - 1), 4);
            rec.alu(4);
            probe |= step; // trace shape only; host math below is exact
        }
        const unsigned code = g721Quantise(sample, estimate, scale, rec,
                                           lay);
        rec.load(lay.dequant + 4 * (code & 0x3f), 4);
        rec.load(lay.wTable + 4 * (code & 0x3f), 4);
        rec.alu(12); // reconstruction, estimate update, scale adaptation
        rec.store(lay.codes + i, static_cast<std::uint8_t>(code), 1);
        rec.endIteration();
    }
    rec.endLoop();
    return rec.finish("g721e");
}

Workload
g721d()
{
    TraceRecorder rec;
    const std::size_t samples = 7000;
    G721Layout lay = layoutG721(rec, samples, false);

    // Host-run the encoder to produce the code stream image.
    {
        Rng rng(0xc721);
        int estimate = 0;
        int scale = 16;
        for (std::size_t i = 0; i < samples; ++i)
            rec.initValue(lay.codes + i,
                          g721Quantise(audioSample(i, rng), estimate,
                                       scale, rec, lay),
                          1);
    }

    int estimate = 0;
    int scale = 16;
    rec.beginLoop();
    for (std::size_t i = 0; i < samples; ++i) {
        const auto code = static_cast<unsigned>(
            rec.load(lay.codes + i, 1));
        const int recon = static_cast<int>(
                              rec.load(lay.dequant + 4 * (code & 0x3f),
                                       4)) *
                          scale / 16;
        rec.alu(8); // scale multiply + sign application
        estimate += (code & 0x40) ? -recon : recon;
        estimate = std::min(32767, std::max(-32768, estimate));
        const int weight = static_cast<int>(
            rec.load(lay.wTable + 4 * (code & 0x3f), 4));
        scale += (weight - scale) / 8;
        scale = std::min(4096, std::max(4, scale));
        rec.alu(7); // clamps + adaptation
        rec.store(lay.pcm + 4 * i,
                  static_cast<std::uint32_t>(
                      static_cast<std::int32_t>(estimate)),
                  4);
        rec.endIteration();
    }
    rec.endLoop();
    return rec.finish("g721d");
}

} // namespace kernels
} // namespace kagura
