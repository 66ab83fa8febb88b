/**
 * @file
 * Graph/search kernels: Dijkstra over a dense adjacency matrix,
 * PATRICIA trie lookups (ALU-heavy key hashing, few memory ops --
 * the compute-bound end of Fig. 17 alongside `strings`), Boyer-Moore
 * style substring search, and a fixed-point FFT.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace kagura
{
namespace kernels
{

Workload
dijkstra()
{
    TraceRecorder rec;
    constexpr unsigned n = 40;
    const Addr adj = rec.allocate(n * n * 4);  // int weights
    const Addr dist = rec.allocate(n * 4);     // u32 distances
    const Addr visited = rec.allocate(n);      // u8 flags
    const Addr result = rec.allocate(4);

    Rng rng(0xd1u);
    // Sparse small weights: most entries are "no edge" (0xffff), the
    // rest small integers -- a mixed-compressibility matrix.
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
            // "No edge" = -1; real weights are route metrics with a
            // wide range, so the dense matrix is mostly
            // incompressible (only sentinel words would compress).
            std::uint32_t w = 0xffffffffu;
            if (i != j && rng.chance(0.85))
                w = static_cast<std::uint32_t>(
                    1000 + rng.below(120000));
            rec.initValue(adj + (i * n + j) * 4, w, 4);
        }
    }

    // Repeat single-source runs from several sources so the matrix is
    // revisited (the MiBench harness loops over input pairs too).
    for (unsigned source = 0; source < 12; ++source) {
        rec.beginLoop();
        for (unsigned i = 0; i < n; ++i) {
            rec.store(dist + 4 * i,
                      i == source ? 0u : 0x7fffffffu, 4);
            rec.store(visited + i, 0, 1);
            rec.alu(2);
            rec.endIteration();
        }
        rec.endLoop();

        rec.beginLoop();
        for (unsigned iter = 0; iter < n; ++iter) {
            // Select the unvisited vertex with the smallest distance.
            unsigned best = n;
            std::uint64_t best_d = ~0ULL;
            rec.beginLoop();
            for (unsigned i = 0; i < n; ++i) {
                const auto v = rec.load(visited + i, 1);
                const auto d = rec.load(dist + 4 * i, 4);
                rec.alu(3);
                if (!v && d < best_d) {
                    best_d = d;
                    best = i;
                }
                rec.endIteration();
            }
            rec.endLoop();
            if (best == n)
                break;
            rec.store(visited + best, 1, 1);
            // Relax the outgoing edges.
            rec.beginLoop();
            for (unsigned j = 0; j < n; ++j) {
                const auto w = rec.load(adj + (best * n + j) * 4, 4);
                rec.alu(2);
                if (w != 0xffffffffu) {
                    const auto dj = rec.load(dist + 4 * j, 4);
                    rec.alu(2);
                    if (best_d + w < dj)
                        rec.store(dist + 4 * j,
                                  static_cast<std::uint32_t>(best_d + w),
                                  4);
                }
                rec.endIteration();
            }
            rec.endLoop();
            rec.endIteration();
        }
        rec.endLoop();
        rec.store(result, static_cast<std::uint32_t>(
                              rec.peek(dist + 4 * (n - 1), 4)), 4);
    }
    return rec.finish("dijkstra");
}

namespace
{

/** PATRICIA node layout: {bit u32, left u32, right u32, key u32}. */
constexpr unsigned nodeBytes = 16;

} // namespace

Workload
patricia()
{
    TraceRecorder rec;
    constexpr unsigned num_keys = 48;
    constexpr unsigned lookups = 2600;
    const Addr nodes = rec.allocate(num_keys * nodeBytes);
    const Addr hits = rec.allocate(4);

    // Build a deterministic binary trie on the host: node i tests bit
    // (i % 29), children point forward (a shallow DAG is enough to
    // model the pointer-chasing access pattern).
    Rng rng(0x9a7);
    std::vector<std::uint32_t> keys(num_keys);
    for (unsigned i = 0; i < num_keys; ++i) {
        keys[i] = static_cast<std::uint32_t>(rng.next());
        rec.initValue(nodes + i * nodeBytes, i % 29, 4);
        const std::uint32_t left =
            i * 2 + 1 < num_keys ? i * 2 + 1 : i;
        const std::uint32_t right =
            i * 2 + 2 < num_keys ? i * 2 + 2 : i;
        rec.initValue(nodes + i * nodeBytes + 4, left, 4);
        rec.initValue(nodes + i * nodeBytes + 8, right, 4);
        rec.initValue(nodes + i * nodeBytes + 12, keys[i], 4);
    }

    std::uint32_t found = 0;
    rec.beginLoop();
    for (unsigned q = 0; q < lookups; ++q) {
        // ALU-heavy key derivation (hashing/parsing an IPv4-like key),
        // which is what makes patricia compute-bound in the paper.
        std::uint32_t key = static_cast<std::uint32_t>(
            mixSeeds(q, 0x9a7));
        rec.alu(34);

        std::uint32_t node = 0;
        std::uint32_t prev_bit = 0xffffffffu;
        for (unsigned depth = 0; depth < 8; ++depth) {
            const auto bit = static_cast<std::uint32_t>(
                rec.load(nodes + node * nodeBytes, 4));
            rec.alu(6); // bit extract + upward-link termination test
            if (bit == prev_bit)
                break;
            prev_bit = bit;
            const bool go_right = (key >> (bit & 31)) & 1;
            node = static_cast<std::uint32_t>(rec.load(
                nodes + node * nodeBytes + (go_right ? 8 : 4), 4));
        }
        const auto stored = static_cast<std::uint32_t>(
            rec.load(nodes + node * nodeBytes + 12, 4));
        rec.alu(12); // full-key compare + bookkeeping
        if (stored == key)
            ++found;
        rec.endIteration();
    }
    rec.endLoop();
    rec.store(hits, found, 4);
    return rec.finish("patricia");
}

Workload
strings()
{
    TraceRecorder rec;
    constexpr unsigned text_len = 60000;
    const char pattern[] = "interruption";
    constexpr unsigned pat_len = sizeof(pattern) - 1;
    const Addr text = rec.allocate(text_len);
    const Addr skip = rec.allocate(256);
    const Addr pat = rec.allocate(pat_len);
    const Addr matches = rec.allocate(4);

    // English-like text with the pattern planted periodically.
    Rng rng(0x57217);
    for (unsigned i = 0; i < text_len; ++i) {
        std::uint8_t c = rng.chance(0.17)
                             ? ' '
                             : 'a' + static_cast<std::uint8_t>(
                                         rng.below(26));
        rec.initValue(text + i, c, 1);
    }
    for (unsigned at = 400; at + pat_len < text_len; at += 900)
        for (unsigned k = 0; k < pat_len; ++k)
            rec.initValue(text + at + k,
                          static_cast<std::uint8_t>(pattern[k]), 1);
    for (unsigned c = 0; c < 256; ++c)
        rec.initValue(skip + c, pat_len, 1);
    for (unsigned k = 0; k + 1 < pat_len; ++k)
        rec.initValue(skip + static_cast<std::uint8_t>(pattern[k]),
                      pat_len - 1 - k, 1);
    for (unsigned k = 0; k < pat_len; ++k)
        rec.initValue(pat + k, static_cast<std::uint8_t>(pattern[k]), 1);

    std::uint32_t count = 0;
    unsigned pos = pat_len - 1;
    rec.beginLoop();
    while (pos < text_len) {
        // Boyer-Moore-Horspool: compare backwards from the window end.
        unsigned k = 0;
        bool match = true;
        rec.beginLoop();
        while (k < pat_len) {
            const auto tc = static_cast<std::uint8_t>(
                rec.load(text + pos - k, 1));
            const auto pc = static_cast<std::uint8_t>(
                rec.load(pat + pat_len - 1 - k, 1));
            // Case folding, collation weighting and comparison per
            // character keep the kernel on the compute-bound side, as
            // in the paper's Fig. 17.
            rec.alu(24);
            rec.endIteration();
            if (tc != pc) {
                match = false;
                break;
            }
            ++k;
        }
        rec.endLoop();
        if (match) {
            ++count;
            pos += pat_len;
        } else {
            const auto last = static_cast<std::uint8_t>(
                rec.load(text + pos, 1));
            const auto shift = static_cast<unsigned>(
                rec.load(skip + last, 1));
            rec.alu(14);
            pos += shift ? shift : 1;
        }
        rec.endIteration();
    }
    rec.endLoop();
    rec.store(matches, count, 4);
    return rec.finish("strings");
}

Workload
fft()
{
    TraceRecorder rec;
    constexpr unsigned n = 256;
    constexpr unsigned passes = 8;
    const Addr real = rec.allocate(n * 4);
    const Addr imag = rec.allocate(n * 4);
    const Addr twiddle = rec.allocate(n * 4); // packed cos|sin, Q14

    // Fixed-point twiddle factors.
    for (unsigned k = 0; k < n; ++k) {
        const double ang = -2.0 * 3.14159265358979 * k / n;
        const auto c = static_cast<std::int16_t>(16384 * std::cos(ang));
        const auto s = static_cast<std::int16_t>(16384 * std::sin(ang));
        rec.initValue(twiddle + 4 * k,
                      (static_cast<std::uint32_t>(
                           static_cast<std::uint16_t>(c))) |
                          (static_cast<std::uint32_t>(
                               static_cast<std::uint16_t>(s))
                           << 16),
                      4);
    }
    Rng rng(0xff7);
    for (unsigned i = 0; i < n; ++i) {
        rec.initValue(real + 4 * i,
                      static_cast<std::uint32_t>(
                          1000 + rng.below(2000)), 4);
        rec.initValue(imag + 4 * i, 0, 4);
    }

    for (unsigned pass = 0; pass < passes; ++pass) {
        rec.beginLoop();
        for (unsigned len = 2; len <= n; len <<= 1) {
            const unsigned step = n / len;
            for (unsigned start = 0; start < n; start += len) {
                for (unsigned j = 0; j < len / 2; ++j) {
                    const unsigned a = start + j;
                    const unsigned b = a + len / 2;
                    const auto ar = static_cast<std::int32_t>(
                        rec.load(real + 4 * a, 4));
                    const auto ai = static_cast<std::int32_t>(
                        rec.load(imag + 4 * a, 4));
                    const auto br = static_cast<std::int32_t>(
                        rec.load(real + 4 * b, 4));
                    const auto bi = static_cast<std::int32_t>(
                        rec.load(imag + 4 * b, 4));
                    const auto tw = static_cast<std::uint32_t>(
                        rec.load(twiddle + 4 * (j * step), 4));
                    const auto c = static_cast<std::int16_t>(tw & 0xffff);
                    const auto s = static_cast<std::int16_t>(tw >> 16);
                    // 32-bit two's-complement arithmetic, as the
                    // target computes it: products and sums wrap
                    // modulo 2^32 (unsigned, so the wrap is defined).
                    const auto u = [](std::int32_t v) {
                        return static_cast<std::uint32_t>(v);
                    };
                    const auto tr = static_cast<std::int32_t>(
                                        u(br) * u(c) - u(bi) * u(s)) >>
                                    14;
                    const auto ti = static_cast<std::int32_t>(
                                        u(br) * u(s) + u(bi) * u(c)) >>
                                    14;
                    rec.alu(12); // complex multiply + butterflies
                    rec.store(real + 4 * a, u(ar) + u(tr), 4);
                    rec.store(imag + 4 * a, u(ai) + u(ti), 4);
                    rec.store(real + 4 * b, u(ar) - u(tr), 4);
                    rec.store(imag + 4 * b, u(ai) - u(ti), 4);
                    rec.endIteration();
                }
            }
        }
        rec.endLoop();
    }
    return rec.finish("fft");
}

} // namespace kernels
} // namespace kagura
