/**
 * @file
 * Synthetic ATUM-like address-trace generator.
 *
 * The paper's Figure 4 is driven by four VAX 8200 ATUM traces (358k-540k
 * four-byte references, VMS operating-system activity accounting for
 * about 25% of references and 50% of misses, a small degree of
 * multiprogramming). Those traces are not available, so this generator
 * reconstructs their *locality structure*:
 *
 *  - instruction fetch as sequential runs broken by local and far
 *    branches (far targets Zipf-distributed over function entry points);
 *  - data references as Zipf-weighted objects with geometric sequential
 *    runs inside an object, plus stack traffic near a wandering top;
 *  - supervisor-mode bursts with a larger, flatter working set, paced by
 *    a feedback controller to a target fraction of all references;
 *  - round-robin multiprogramming over several address spaces (ASIDs),
 *    with the kernel region shared (re-tagged per ASID, as in VMP where
 *    kernel space is part of each user space).
 *
 * Everything is parameterized through SyntheticConfig; the four preset
 * workloads in workloads.hh stand in for the four ATUM traces.
 */

#ifndef VMP_TRACE_SYNTHETIC_HH
#define VMP_TRACE_SYNTHETIC_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"
#include "trace/ref.hh"

namespace vmp::trace
{

/** Start of the kernel virtual region (region 4 of the VMP memory map). */
constexpr Addr kernelBase = 0x1800'0000;
/** Start of user virtual space (region 5 of the VMP memory map). */
constexpr Addr userBase = 0x2000'0000;

/** Parameters describing one segment of Zipf-object data traffic. */
struct DataSegmentConfig
{
    /** Number of distinct objects in the segment. */
    std::uint32_t objects = 512;
    /** Bytes per object (power of two keeps addressing simple). */
    std::uint32_t objectBytes = 512;
    /** Zipf skew over objects; larger = hotter core. */
    double theta = 0.85;
    /** Mean sequential run length, in 4-byte words, within an object. */
    double meanRunWords = 8.0;
};

/** Parameters describing one instruction-fetch segment. */
struct CodeSegmentConfig
{
    /** Total code bytes. */
    std::uint32_t bytes = 128 * 1024;
    /** Number of function entry points far branches target. */
    std::uint32_t functions = 256;
    /** Zipf skew over function popularity. */
    double theta = 1.0;
    /** Mean instructions between taken branches. */
    double meanRunInstrs = 8.0;
    /** Probability a taken branch is local (short displacement). */
    double localBranchProb = 0.75;
    /** Max local branch displacement in bytes (either direction). */
    std::uint32_t localRange = 512;
};

/** Full generator configuration. */
struct SyntheticConfig
{
    std::uint64_t seed = 1;
    /** Total references to produce. */
    std::uint64_t totalRefs = 500'000;

    /** Degree of multiprogramming (distinct user address spaces). */
    std::uint32_t processes = 2;
    /** First ASID used (processes get asidBase, asidBase+1, ...). */
    Asid asidBase = 1;
    /**
     * Byte offset added to the kernel segments. Zero means every
     * generator shares one physical kernel image (the realistic
     * multiprocessor case); distinct offsets give each processor a
     * private pseudo-kernel for contention-free baseline studies.
     */
    Addr kernelOffset = 0;
    /** References per scheduling quantum before a context switch. */
    std::uint64_t quantumRefs = 20'000;

    /** Per-instruction probability of a data reference. */
    double dataRefProb = 0.45;
    /** Per-instruction probability of a stack reference. */
    double stackRefProb = 0.12;
    /** Fraction of data references that are writes. */
    double writeFrac = 0.30;

    /** Target fraction of references made in supervisor mode. */
    double osRefFrac = 0.25;
    /** Mean length (instructions) of one supervisor burst. */
    double osBurstInstrs = 120.0;

    CodeSegmentConfig userCode{};
    DataSegmentConfig userData{};
    /** User stack span in bytes. */
    std::uint32_t stackBytes = 16 * 1024;

    CodeSegmentConfig osCode{};
    DataSegmentConfig osData{};

    /** Validate parameters; throws FatalError on nonsense. */
    void check() const;
};

/**
 * Pull-source producing the synthetic reference stream. next() is
 * inline over a three-slot queue (one instruction emits at most a
 * fetch, a data and a stack reference); refill() runs the next
 * instruction when the queue is empty.
 */
class SyntheticGen final : public RefSource
{
  public:
    explicit SyntheticGen(const SyntheticConfig &config);
    ~SyntheticGen() override;

    bool
    next(MemRef &ref) override
    {
        if (produced_ >= cfg_.totalRefs)
            return false;
        if (queuePos_ == queueLen_)
            refill();
        ref = queue_[queuePos_++];
        ++produced_;
        supRefs_ += ref.supervisor;
        if (--quantumLeft_ == 0) {
            quantumLeft_ = cfg_.quantumRefs;
            activeProc_ = (activeProc_ + 1) % cfg_.processes;
        }
        return true;
    }

    /** References produced so far. */
    std::uint64_t produced() const { return produced_; }
    /** Supervisor-mode references produced so far. */
    std::uint64_t supervisorRefs() const { return supRefs_; }

  private:
    /** Mutable per-address-space generation state. */
    struct ProcState;

    /** Queue one reference; check() keeps @p vaddr below 2^32. */
    void
    emit(Asid asid, Addr vaddr, RefType type, bool supervisor)
    {
        // One 8-byte store. Assigned in place, the record is stored
        // field by field, the supervisor bit by read-modify-write, and
        // a caller's whole-record reload then misses store forwarding.
        const MemRef ref{vaddr, asid, type, 4, supervisor};
        std::memcpy(&queue_[queueLen_++], &ref, sizeof ref);
    }
    /** Run one instruction worth of references into the empty queue. */
    void refill();
    template <bool supervisor>
    void stepInstruction(ProcState &proc, Rng &rng);
    template <bool supervisor>
    void stepCode(ProcState &proc, Rng &rng);
    template <bool supervisor>
    void stepData(ProcState &proc, Rng &rng);
    void stepStack(ProcState &proc, Rng &rng);

    SyntheticConfig cfg_;
    Rng rng_;
    std::vector<ProcState> procs_;
    ZipfDist userFuncDist_;
    ZipfDist userObjDist_;
    ZipfDist osFuncDist_;
    ZipfDist osObjDist_;
    GeometricDist userRunDist_;
    GeometricDist userDataRunDist_;
    GeometricDist osRunDist_;
    GeometricDist osDataRunDist_;
    GeometricDist osBurstDist_;

    std::uint64_t produced_ = 0;
    std::uint64_t supRefs_ = 0;
    std::uint64_t quantumLeft_ = 0;
    std::uint32_t activeProc_ = 0;
    /** Instructions remaining in the current supervisor burst (0=user). */
    std::uint64_t osBurstLeft_ = 0;
    /** References queued by refill(), drained by next(). */
    std::array<MemRef, 3> queue_;
    std::uint32_t queueLen_ = 0;
    std::uint32_t queuePos_ = 0;
};

} // namespace vmp::trace

#endif // VMP_TRACE_SYNTHETIC_HH
