/**
 * @file
 * Host-side microbenchmarks (google-benchmark) for the compression
 * kit, on the path the simulator runs: the allocation-free
 * `sizeBits` probe, `compress` into a `PayloadBuffer`, and span
 * `decompress`, on 32- and 64-byte `Block`s for all six algorithms.
 * Each benchmark cycles through a pool of seeded blocks of one
 * pattern so one block's branch history does not flatter the timing.
 * These are simulator-infrastructure benchmarks (how fast the *model*
 * runs), not EHS results.
 *
 * Run: build/bench/microbench_compressors [--benchmark_filter=sizeBits]
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/block.hh"
#include "common/rng.hh"
#include "compress/compressor.hh"

using namespace kagura;

namespace
{

constexpr std::size_t poolSize = 64;

/** Little-endian store of the low @p bytes of @p v into @p block. */
void
put(Block &block, std::size_t at, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        block.data()[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/**
 * A pool of @p bytes-byte blocks of one pattern: 0 zeros, 1 small
 * 32-bit ints, 2 narrow deltas around a pointer-like 64-bit base,
 * 3 random bytes.
 */
std::vector<Block>
blockPool(int pattern, std::size_t bytes)
{
    std::vector<Block> pool;
    Rng rng(42);
    for (std::size_t k = 0; k < poolSize; ++k) {
        Block block(bytes);
        switch (pattern) {
          case 0:
            break;
          case 1:
            for (std::size_t i = 0; i < bytes; i += 4)
                put(block, i, rng.below(100), 4);
            break;
          case 2: {
              const std::uint64_t base =
                  0x7ffd00000000ULL + rng.below(1 << 20);
              for (std::size_t i = 0; i < bytes; i += 8)
                  put(block, i, base + rng.below(200), 8);
              break;
          }
          default:
            for (std::size_t i = 0; i < bytes; ++i)
                block.data()[i] = static_cast<std::uint8_t>(rng.next());
            break;
        }
        pool.push_back(block);
    }
    return pool;
}

/** Benchmark arguments: algorithm, block bytes, pattern. */
struct Args
{
    std::unique_ptr<Compressor> comp;
    std::size_t bytes;
    std::vector<Block> pool;

    explicit Args(const benchmark::State &state)
        : comp(makeCompressor(static_cast<CompressorKind>(state.range(0)))),
          bytes(static_cast<std::size_t>(state.range(1))),
          pool(blockPool(static_cast<int>(state.range(2)), bytes))
    {
    }

    void
    label(benchmark::State &state) const
    {
        state.SetLabel(comp->name());
        state.SetBytesProcessed(
            static_cast<std::int64_t>(state.iterations() * bytes));
    }
};

void
sizeBits(benchmark::State &state)
{
    const Args args(state);
    std::size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            args.comp->sizeBits(args.pool[k++ % poolSize].span()));
    }
    args.label(state);
}

void
compressInto(benchmark::State &state)
{
    const Args args(state);
    PayloadBuffer out;
    std::size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            args.comp->compress(args.pool[k++ % poolSize].span(), out));
        benchmark::ClobberMemory();
    }
    args.label(state);
}

void
decompressInto(benchmark::State &state)
{
    const Args args(state);
    std::vector<PayloadBuffer> payloads(poolSize);
    for (std::size_t k = 0; k < poolSize; ++k)
        args.comp->compress(args.pool[k].span(), payloads[k]);
    Block restored(args.bytes);
    std::size_t k = 0;
    for (auto _ : state) {
        args.comp->decompress(payloads[k++ % poolSize].span(),
                              restored.span());
        benchmark::DoNotOptimize(restored.data());
        benchmark::ClobberMemory();
    }
    args.label(state);
}

void
allShapes(benchmark::internal::Benchmark *b)
{
    b->ArgsProduct({{0, 1, 2, 3, 4, 5}, {32, 64}, {0, 1, 2, 3}})
        ->ArgNames({"algo", "bytes", "pattern"});
}

} // namespace

BENCHMARK(sizeBits)->Apply(allShapes);
BENCHMARK(compressInto)->Apply(allShapes);
BENCHMARK(decompressInto)->Apply(allShapes);

BENCHMARK_MAIN();
