/**
 * @file
 * Workloads: deterministic micro-op streams standing in for the 20
 * MiBench/MediaBench applications of the paper's evaluation.
 *
 * Each kernel is a real (host-executed) algorithm -- a DCT, a Feistel
 * cipher, an ADPCM codec, a trie lookup, ... -- recorded through a
 * TraceRecorder into a stream of {ALU, load, store} micro-ops over a
 * concrete data image. Compressibility, locality, and arithmetic
 * intensity are therefore properties of real data and real access
 * patterns, which is what the compression stack observes.
 */

#ifndef KAGURA_CORE_WORKLOAD_HH
#define KAGURA_CORE_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/sparse_bytes.hh"

namespace kagura
{

class Nvm;

/** One committed micro-operation group. */
struct MicroOp
{
    enum class Type : std::uint8_t
    {
        Alu,   ///< @c count back-to-back arithmetic instructions
        Load,  ///< one load of @c size bytes from @c addr
        Store, ///< one store of @c value (@c size bytes) to @c addr
    };

    Type type;
    std::uint8_t size = 0;
    /** Number of fused ALU instructions (Alu ops only). */
    std::uint16_t count = 1;
    /** Program counter of the (first) instruction. */
    Addr pc = 0;
    /** Data address (Load/Store). */
    Addr addr = 0;
    /** Store data (Store only). */
    std::uint64_t value = 0;
};

/** A finished workload: its op stream plus the initial memory image. */
class Workload
{
  public:
    Workload(std::string name, std::vector<MicroOp> ops,
             std::map<Addr, std::uint8_t> image);

    /** Application name (matches the paper's figures). */
    const std::string &name() const { return label; }

    /** The committed micro-op stream. */
    const std::vector<MicroOp> &ops() const { return stream; }

    /** Apply the initial data image to @p nvm (before simulation). */
    void applyImage(Nvm &nvm) const;

    /** Committed dynamic instructions (ALU counts expanded). */
    std::uint64_t committedInstructions() const { return instructions; }

    /** Number of load + store micro-ops. */
    std::uint64_t memoryOps() const { return memOps; }

    /** Arithmetic intensity: ALU instructions per memory op. */
    double arithmeticIntensity() const;

    /** The initial data image (tests; functional verification). */
    const std::map<Addr, std::uint8_t> &initialImage() const
    {
        return image;
    }

  private:
    /** A contiguous stretch of the initial image. */
    struct ImageRun
    {
        Addr base;
        std::vector<std::uint8_t> bytes;
    };

    std::string label;
    std::vector<MicroOp> stream;
    std::map<Addr, std::uint8_t> image;
    /** The image as ascending contiguous runs (one NVM write each). */
    std::vector<ImageRun> runs;
    /** committedInstructions() and memoryOps(), counted once. */
    std::uint64_t instructions = 0;
    std::uint64_t memOps = 0;
};

/**
 * Records a kernel's execution into a Workload. Provides a functional
 * memory (initial image + stores) so kernels compute real results, and
 * a structured PC model (loops) so instruction fetch shows the loop
 * locality a compiled binary would.
 */
class TraceRecorder
{
  public:
    /**
     * @param code_base PC of the kernel's first instruction.
     * @param data_base Suggested base address for data placement.
     */
    explicit TraceRecorder(Addr code_base = 0x8000,
                           Addr data_base = 0x100000);

    /** Record @p count consecutive ALU instructions. */
    void alu(unsigned count = 1);

    /** Record a load; returns the current (functional) memory value. */
    std::uint64_t load(Addr addr, unsigned size);

    /** Record a store of @p value. */
    void store(Addr addr, std::uint64_t value, unsigned size);

    /** Mark the head of a loop. */
    void beginLoop();

    /** One loop iteration finished; the PC returns to the loop head. */
    void endIteration();

    /** The loop is done; the PC continues past the widest iteration. */
    void endLoop();

    /**
     * Initialise memory *without* recording ops (the program's static
     * data segment / input file image).
     */
    void initData(Addr addr, const void *bytes, std::size_t count);

    /** Convenience: place a little-endian integer in the image. */
    void initValue(Addr addr, std::uint64_t value, unsigned size);

    /** Read functional memory without recording an op (host logic). */
    std::uint64_t peek(Addr addr, unsigned size) const;

    /** Reserve and return a data region of @p bytes (8-aligned). */
    Addr allocate(std::size_t bytes);

    /** Finish recording. */
    Workload finish(std::string name);

  private:
    void writeMemory(Addr addr, std::uint64_t value, unsigned size,
                     bool record_image);

    std::vector<MicroOp> stream;
    SparseBytes memory;                 ///< current functional bytes
    std::map<Addr, std::uint8_t> image; ///< initial image only
    Addr pc;
    Addr codeBase;
    Addr dataCursor;

    struct LoopFrame
    {
        Addr start;
        Addr maxEnd;
    };
    std::vector<LoopFrame> loops;
};

/** All application names, in the order the paper's figures list them. */
const std::vector<std::string> &workloadNames();

/**
 * Hook for externally provided workloads (the src/trace subsystem
 * registers one resolving `trace:<file>` names and registered trace
 * aliases). makeWorkload() consults it after the built-in kernel
 * registry; at most one source can be installed per process.
 */
struct ExternalWorkloadSource
{
    /** Does this source recognise @p name? */
    bool (*matches)(const std::string &name) = nullptr;
    /** Build the workload (only called when matches() was true). */
    Workload (*build)(const std::string &name) = nullptr;
    /** Currently resolvable names (for error text / listings). */
    std::vector<std::string> (*names)() = nullptr;
};

/** Install @p source as the external workload resolver. */
void setExternalWorkloadSource(const ExternalWorkloadSource &source);

/** True iff makeWorkload(@p name) would succeed. */
bool workloadExists(const std::string &name);

/**
 * One human-readable line per known workload family: the paper
 * suite, the extension kernels, and any external (trace) names.
 * Used by "unknown workload" fatals so the valid choices are always
 * spelled out.
 */
std::string knownWorkloadsSummary();

/**
 * Extension workloads beyond the paper's 20-app suite (e.g. the
 * Section VII-B AIoT inference kernel); buildable via makeWorkload
 * but excluded from the evaluation figures.
 */
const std::vector<std::string> &extensionWorkloadNames();

/** Build the named workload (fatal on unknown names). */
Workload makeWorkload(const std::string &name);

/**
 * Memoised variant of makeWorkload: kernels are deterministic, so the
 * recorded trace is built once per process and shared by every run
 * (the benchmark harness sweeps dozens of configurations per app).
 */
const Workload &cachedWorkload(const std::string &name);

/** Six apps spanning the arithmetic-intensity range (Fig. 17). */
const std::vector<std::string> &intensityStudyNames();

} // namespace kagura

#endif // KAGURA_CORE_WORKLOAD_HH
