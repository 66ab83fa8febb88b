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
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "mem/sparse_bytes.hh"

namespace kagura
{

class Nvm;

/**
 * One committed micro-operation group. The modelled core is an
 * ARMv7-M, whose address space is 32 bits, so the PC takes the four
 * bytes that would otherwise pad the record; data addresses stay 64
 * bits wide like the rest of the memory system.
 */
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
    std::uint32_t pc = 0;
    /** Data address (Load/Store). */
    Addr addr = 0;
    /** Store data (Store only). */
    std::uint64_t value = 0;
};

static_assert(sizeof(MicroOp) == 24,
              "a workload holds millions of ops: keep them at 24 bytes");

/** Largest PC a MicroOp holds (the modelled core's 32-bit space). */
constexpr Addr maxPc = 0xffffffffULL;

/** A contiguous stretch of a workload's initial memory image. */
struct ImageRun
{
    Addr base = 0;
    std::vector<std::uint8_t> bytes;

    /** One past the run's last address. */
    Addr end() const { return base + bytes.size(); }

    bool operator==(const ImageRun &) const = default;
};

/**
 * A workload's initial image read as ascending (address, byte) pairs,
 * straight off its runs; nothing is copied.
 */
class ImageBytes
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = std::pair<Addr, std::uint8_t>;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = value_type;

        value_type
        operator*() const
        {
            return {run->base + offset, run->bytes[offset]};
        }

        iterator &
        operator++()
        {
            if (++offset == run->bytes.size()) {
                ++run;
                offset = 0;
            }
            return *this;
        }

        iterator
        operator++(int)
        {
            iterator before = *this;
            ++*this;
            return before;
        }

        bool operator==(const iterator &) const = default;

      private:
        friend class ImageBytes;
        iterator(const ImageRun *run, std::size_t offset)
            : run(run), offset(offset)
        {
        }

        const ImageRun *run;
        std::size_t offset;
    };

    explicit ImageBytes(const std::vector<ImageRun> &runs) : runs(runs) {}

    iterator begin() const { return {runs.data(), 0}; }
    iterator end() const { return {runs.data() + runs.size(), 0}; }

    /** Image bytes across all runs. */
    std::size_t size() const;

    bool empty() const { return runs.empty(); }

  private:
    const std::vector<ImageRun> &runs;
};

/** A finished workload: its op stream plus the initial memory image. */
class Workload
{
  public:
    /**
     * @param runs The initial image: non-empty runs in ascending
     *        address order, none touching the next (so equal images
     *        have equal runs).
     */
    Workload(std::string name, std::vector<MicroOp> ops,
             std::vector<ImageRun> runs);

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

    /** The initial image as runs: one NVM write, one trace extent each. */
    const std::vector<ImageRun> &imageRuns() const { return runs; }

    /** The initial image byte by byte (functional verification). */
    ImageBytes initialImage() const { return ImageBytes(runs); }

  private:
    std::string label;
    std::vector<MicroOp> stream;
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
    /** Append @p op at the current PC (which must fit 32 bits). */
    void record(MicroOp op);

    /** Write @p count bytes to functional memory and the image. */
    void writeInit(Addr addr, const std::uint8_t *bytes,
                   std::size_t count);

    /** One or more back-to-back init writes, in initBytes. */
    struct InitWrite
    {
        Addr addr;
        std::size_t offset;
        std::size_t count;
    };

    std::vector<MicroOp> stream;
    SparseBytes memory; ///< current functional bytes
    /** The initial image: every init write in program order, so the
     *  last write to a byte wins when finish() replays them. */
    std::vector<InitWrite> initWrites;
    std::vector<std::uint8_t> initBytes;
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
 * Build-once memo of workloads by name. The memo's lock guards only
 * the name -> entry map; each entry's build runs outside it, exactly
 * once (a per-entry once-flag), so different names build concurrently
 * while callers of one name wait for its single build and then share
 * the result. Entries are never erased or moved, so a returned
 * reference stays valid (and is only ever read) for the memo's life.
 */
class WorkloadMemo
{
  public:
    using Build = std::function<Workload(const std::string &name)>;

    explicit WorkloadMemo(Build build) : build(std::move(build)) {}

    /** The workload named @p name, built on first request. */
    const Workload &get(const std::string &name);

  private:
    struct Entry
    {
        std::once_flag built;
        std::optional<Workload> workload;
    };

    Build build;
    std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;
};

/**
 * Memoised variant of makeWorkload: kernels are deterministic, so the
 * recorded trace is built once per process and shared by every run
 * (the benchmark harness sweeps dozens of configurations per app).
 * One process-wide WorkloadMemo.
 */
const Workload &cachedWorkload(const std::string &name);

/** Six apps spanning the arithmetic-intensity range (Fig. 17). */
const std::vector<std::string> &intensityStudyNames();

} // namespace kagura

#endif // KAGURA_CORE_WORKLOAD_HH
