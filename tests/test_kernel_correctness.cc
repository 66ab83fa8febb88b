/**
 * @file
 * Functional correctness of the workload kernels themselves: the
 * recorded traces are real computations, so their final memory images
 * must satisfy the algorithms' own invariants (a sorted array, a
 * matching codec round trip, consistent shortest-path distances, a
 * valid CRC, ...). These tests read the *expected final memory* (the
 * initial image overlaid with the trace's stores) and check it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/workload.hh"

namespace kagura
{
namespace
{

/** Initial image + stores = the memory a faithful platform ends with. */
std::map<Addr, std::uint8_t>
finalImage(const Workload &wl)
{
    std::map<Addr, std::uint8_t> memory(wl.initialImage().begin(),
                                        wl.initialImage().end());
    for (const MicroOp &op : wl.ops()) {
        if (op.type != MicroOp::Type::Store)
            continue;
        for (unsigned i = 0; i < op.size; ++i)
            memory[op.addr + i] =
                static_cast<std::uint8_t>(op.value >> (8 * i));
    }
    return memory;
}

std::uint64_t
peek(const std::map<Addr, std::uint8_t> &memory, Addr addr,
     unsigned size)
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
        auto it = memory.find(addr + i);
        const std::uint8_t byte = it == memory.end() ? 0 : it->second;
        value |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return value;
}

/** Lowest data address a workload's memory ops touch. */
Addr
dataBase(const Workload &wl)
{
    Addr base = ~0ULL;
    for (const MicroOp &op : wl.ops()) {
        if (op.type != MicroOp::Type::Alu)
            base = std::min(base, op.addr);
    }
    return base;
}

TEST(KernelCorrectness, QsortProducesASortedArray)
{
    const Workload &wl = cachedWorkload("qsort");
    const auto memory = finalImage(wl);
    const Addr array = dataBase(wl);
    constexpr unsigned n = 2600; // matches the kernel's constant
    std::uint64_t prev = 0;
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t v = peek(memory, array + 4ULL * i, 4);
        ASSERT_GE(v, prev) << "index " << i;
        prev = v;
    }
}

TEST(KernelCorrectness, Crc32MatchesAReferenceImplementation)
{
    const Workload &wl = cachedWorkload("crc32");
    const auto memory = finalImage(wl);

    // Layout (see crypto_kernels.cc): table (1 KB), buffer, result.
    const Addr table = dataBase(wl);
    const Addr buffer = table + 256 * 4;
    constexpr unsigned length = 22000;
    const Addr result = buffer + ((length + 7) / 8) * 8;

    // Reference CRC over the same buffer bytes.
    std::uint32_t crc = 0xffffffffu;
    for (unsigned i = 0; i < length; ++i) {
        const auto byte =
            static_cast<std::uint8_t>(peek(memory, buffer + i, 1));
        crc ^= byte;
        for (unsigned k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (crc & 1 ? 0xedb88320u : 0u);
    }
    EXPECT_EQ(peek(memory, result, 4), ~crc & 0xffffffffu);
}

TEST(KernelCorrectness, AdpcmRoundTripReconstructsTheWaveform)
{
    // adpcm_c encodes a waveform; adpcm_d decodes the same encoder
    // output. The decoder's reconstructed samples must track the
    // encoder's input within the codec's quantisation error.
    const Workload &enc = cachedWorkload("adpcm_c");
    const Workload &dec = cachedWorkload("adpcm_d");
    const auto enc_mem = finalImage(enc);
    const auto dec_mem = finalImage(dec);

    // Layout (codec_kernels.cc): stepTable (356 B, 8-aligned to 360),
    // indexTable (16 B), then pcm.
    const Addr enc_pcm = dataBase(enc) + 360 + 16;
    const Addr dec_pcm = dataBase(dec) + 360 + 16;

    double err = 0.0;
    constexpr unsigned samples = 9000;
    for (unsigned i = 256; i < samples; ++i) {
        const auto original = static_cast<std::int16_t>(
            peek(enc_mem, enc_pcm + 2 * i, 2));
        const auto decoded = static_cast<std::int16_t>(
            peek(dec_mem, dec_pcm + 2 * i, 2));
        err += std::abs(static_cast<double>(original) - decoded);
    }
    // IMA ADPCM tracks within a small fraction of full scale.
    EXPECT_LT(err / samples, 1200.0);
}

TEST(KernelCorrectness, DijkstraDistancesRespectEdgeRelaxation)
{
    const Workload &wl = cachedWorkload("dijkstra");
    const auto memory = finalImage(wl);
    constexpr unsigned n = 40;
    const Addr adj = dataBase(wl);
    const Addr dist = adj + n * n * 4;

    // Final state is the last source's run: no edge may offer a
    // shortcut (triangle inequality on settled distances).
    std::vector<std::uint64_t> d(n);
    for (unsigned i = 0; i < n; ++i)
        d[i] = peek(memory, dist + 4 * i, 4);
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
            const std::uint64_t w = peek(memory, adj + (i * n + j) * 4, 4);
            if (w == 0xffffffffu)
                continue;
            ASSERT_LE(d[j], d[i] + w) << i << "->" << j;
        }
    }
}

TEST(KernelCorrectness, StringsFindsThePlantedPatterns)
{
    const Workload &wl = cachedWorkload("strings");
    const auto memory = finalImage(wl);
    constexpr unsigned text_len = 60000;
    constexpr unsigned pat_len = 12; // "interruption"

    // The match counter is the kernel's single (and final) store.
    Addr matches = 0;
    for (const MicroOp &op : wl.ops()) {
        if (op.type == MicroOp::Type::Store)
            matches = op.addr;
    }
    ASSERT_NE(matches, 0u);

    // The generator plants the pattern every 900 characters from 400.
    std::uint64_t planted = 0;
    for (unsigned at = 400; at + pat_len < text_len; at += 900)
        ++planted;
    EXPECT_EQ(peek(memory, matches, 4), planted);
}

TEST(KernelCorrectness, BitcountTotalsMatchAReferenceCount)
{
    const Workload &wl = cachedWorkload("bitcount");
    const auto memory = finalImage(wl);
    constexpr unsigned n = 8000;
    const Addr words = dataBase(wl);
    const Addr result = words + n * 4 + 16;

    std::uint64_t total = 0;
    for (unsigned i = 0; i < n; ++i)
        total += __builtin_popcountll(peek(memory, words + 4 * i, 4));
    EXPECT_EQ(peek(memory, result, 4),
              total & 0xffffffffu);
}

TEST(KernelCorrectness, AiotDnnEmitsOnePredictionPerFrame)
{
    const Workload &wl = cachedWorkload("aiot_dnn");
    const auto memory = finalImage(wl);
    // Every prediction byte must be a valid class id (0..5).
    std::uint64_t checked = 0;
    for (const MicroOp &op : wl.ops()) {
        if (op.type == MicroOp::Type::Store && op.size == 1) {
            const std::uint64_t v = peek(memory, op.addr, 1);
            ASSERT_LT(v, 6u);
            ++checked;
        }
    }
    EXPECT_EQ(checked, 220u); // one per frame
}

} // namespace
} // namespace kagura
