#include "trace/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace vmp::trace
{

namespace
{

/**
 * Per-process segment base addresses inside user space. The low bits
 * are deliberately irregular: if every segment started on a large
 * power-of-two boundary, all of them (across all address spaces) would
 * collide onto the same cache sets, producing pathological conflict
 * misses no real program mix exhibits.
 */
constexpr Addr codeOffset = 0x0000'0000;
constexpr Addr dataOffset = 0x0112'3400;
constexpr Addr stackOffset = 0x0234'5680;
/** Kernel segment offsets inside the kernel region. */
constexpr Addr osCodeOffset = 0x0001'9E40;
constexpr Addr osDataOffset = 0x0043'7280;
/** Per-process stagger so same-numbered segments differ in set. */
constexpr Addr processStride = 0x0003'7740;

} // namespace

void
SyntheticConfig::check() const
{
    if (totalRefs == 0)
        fatal("synthetic trace: totalRefs must be positive");
    if (processes == 0 || processes > 200)
        fatal("synthetic trace: processes must be in [1, 200]");
    if (quantumRefs == 0)
        fatal("synthetic trace: quantumRefs must be positive");
    // Written so that NaN fails each test (it fails every comparison).
    for (const double p : {dataRefProb, stackRefProb, writeFrac,
                           userCode.localBranchProb, osCode.localBranchProb})
        if (!(p >= 0 && p <= 1))
            fatal("synthetic trace: probabilities must be in [0, 1]");
    if (!(osRefFrac >= 0 && osRefFrac < 1))
        fatal("synthetic trace: osRefFrac must be in [0, 1)");
    for (const double mean : {osBurstInstrs, userCode.meanRunInstrs,
                              osCode.meanRunInstrs, userData.meanRunWords,
                              osData.meanRunWords})
        if (!(mean >= 1 && std::isfinite(mean)))
            fatal("synthetic trace: mean run lengths must be finite, >= 1");
    for (const double theta : {userCode.theta, osCode.theta,
                               userData.theta, osData.theta})
        if (std::isnan(theta))
            fatal("synthetic trace: Zipf theta is NaN");
    for (const auto *code : {&userCode, &osCode}) {
        if (code->bytes < 4096 || code->functions == 0)
            fatal("synthetic trace: code segment too small");
        // Zero would reach Rng::below(0) on the first local branch.
        if (code->localRange == 0 || code->localRange > code->bytes)
            fatal("synthetic trace: localRange must be in [1, bytes]");
    }
    for (const auto *data : {&userData, &osData})
        if (data->objects == 0 || data->objectBytes < 4)
            fatal("synthetic trace: data segment too small");
    if (stackBytes < 256)
        fatal("synthetic trace: stack too small");
    if (kernelOffset >= (userBase - kernelBase) / 2)
        fatal("synthetic trace: kernelOffset outside kernel region");
    // Every segment's end, the highest process's for the user ones,
    // must fit a MemRef's 32-bit vaddr. Each sum stays far below 2^64.
    const Addr kernel = kernelBase + kernelOffset;
    const Addr user = userBase + (processes - 1) * processStride;
    for (const Addr end :
         {kernel + osCodeOffset + osCode.bytes,
          kernel + osDataOffset + Addr{osData.objects} * osData.objectBytes,
          user + codeOffset + userCode.bytes,
          user + dataOffset + Addr{userData.objects} * userData.objectBytes,
          user + stackOffset + stackBytes})
        if (end > refAddrLimit)
            fatal("synthetic trace: a segment ends at 0x", std::hex, end,
                  ", past the 32-bit reference address space");
}

/** Generation state for one address space (plus its kernel activity). */
struct SyntheticGen::ProcState
{
    Asid asid = 0;
    Addr base = 0;

    // Code state, separately for user and supervisor mode.
    Addr pc = 0;
    std::uint64_t runLeft = 0;
    Addr osPc = 0;
    std::uint64_t osRunLeft = 0;

    // Data state.
    Addr dataAddr = 0;
    std::uint64_t dataRunLeft = 0;
    Addr osDataAddr = 0;
    std::uint64_t osDataRunLeft = 0;

    // Stack state: byte offset of the top within the stack span.
    Addr stackTop = 0;
};

SyntheticGen::SyntheticGen(const SyntheticConfig &config)
    : cfg_((config.check(), config)), rng_(config.seed),
      userFuncDist_(cfg_.userCode.functions, cfg_.userCode.theta),
      userObjDist_(cfg_.userData.objects, cfg_.userData.theta),
      osFuncDist_(cfg_.osCode.functions, cfg_.osCode.theta),
      osObjDist_(cfg_.osData.objects, cfg_.osData.theta),
      userRunDist_(1.0 / cfg_.userCode.meanRunInstrs),
      userDataRunDist_(1.0 / cfg_.userData.meanRunWords),
      osRunDist_(1.0 / cfg_.osCode.meanRunInstrs),
      osDataRunDist_(1.0 / cfg_.osData.meanRunWords),
      osBurstDist_(1.0 / cfg_.osBurstInstrs)
{
    procs_.resize(cfg_.processes);
    for (std::uint32_t p = 0; p < cfg_.processes; ++p) {
        ProcState &proc = procs_[p];
        proc.asid = static_cast<Asid>(cfg_.asidBase + p);
        proc.base = userBase + p * processStride;
        proc.pc = proc.base + codeOffset;
        proc.osPc = kernelBase + cfg_.kernelOffset + osCodeOffset;
        proc.stackTop = cfg_.stackBytes / 2;
    }
    quantumLeft_ = cfg_.quantumRefs;
}

SyntheticGen::~SyntheticGen() = default;

template <bool supervisor>
inline void
SyntheticGen::stepCode(ProcState &proc, Rng &rng)
{
    const CodeSegmentConfig &cfg = supervisor ? cfg_.osCode : cfg_.userCode;
    Addr &pc = supervisor ? proc.osPc : proc.pc;
    std::uint64_t &run = supervisor ? proc.osRunLeft : proc.runLeft;
    const Addr seg_base = supervisor
        ? kernelBase + cfg_.kernelOffset + osCodeOffset
        : proc.base + codeOffset;
    const Addr seg_end = seg_base + cfg.bytes;

    if (run == 0) {
        // Take a branch.
        if (rng.chance(cfg.localBranchProb)) {
            const std::int64_t disp =
                static_cast<std::int64_t>(rng.below(2 * cfg.localRange)) -
                static_cast<std::int64_t>(cfg.localRange);
            std::int64_t target = static_cast<std::int64_t>(pc) + disp;
            target = std::clamp(
                target, static_cast<std::int64_t>(seg_base),
                static_cast<std::int64_t>(seg_end - 4));
            pc = alignDown(static_cast<Addr>(target), 4);
        } else {
            const auto &dist = supervisor ? osFuncDist_ : userFuncDist_;
            const std::uint64_t func = dist.sample(rng);
            const Addr stride = cfg.bytes / cfg.functions;
            pc = seg_base + alignDown(func * stride, 4);
        }
        run = (supervisor ? osRunDist_ : userRunDist_).sample(rng);
    }

    emit(proc.asid, pc, RefType::InstrFetch, supervisor);
    pc += 4;
    if (pc >= seg_end)
        pc = seg_base;
    --run;
}

template <bool supervisor>
inline void
SyntheticGen::stepData(ProcState &proc, Rng &rng)
{
    const DataSegmentConfig &cfg = supervisor ? cfg_.osData : cfg_.userData;
    Addr &addr = supervisor ? proc.osDataAddr : proc.dataAddr;
    std::uint64_t &run = supervisor ? proc.osDataRunLeft
                                    : proc.dataRunLeft;
    const Addr seg_base = supervisor
        ? kernelBase + cfg_.kernelOffset + osDataOffset
        : proc.base + dataOffset;
    const Addr seg_bytes =
        static_cast<Addr>(cfg.objects) * cfg.objectBytes;

    if (run == 0) {
        const auto &dist = supervisor ? osObjDist_ : userObjDist_;
        const std::uint64_t obj = dist.sample(rng);
        const Addr off = alignDown(rng.below(cfg.objectBytes), 4);
        addr = seg_base + obj * cfg.objectBytes + off;
        run = (supervisor ? osDataRunDist_ : userDataRunDist_).sample(rng);
    }

    const RefType type = rng.chance(cfg_.writeFrac)
        ? RefType::DataWrite
        : RefType::DataRead;
    emit(proc.asid, addr, type, supervisor);
    addr += 4;
    if (addr >= seg_base + seg_bytes)
        addr = seg_base;
    --run;
}

inline void
SyntheticGen::stepStack(ProcState &proc, Rng &rng)
{
    // The stack top drifts up and down; references cluster at the top.
    const std::int64_t drift =
        static_cast<std::int64_t>(rng.below(9)) - 4;
    std::int64_t top = static_cast<std::int64_t>(proc.stackTop) +
        drift * 4;
    top = std::clamp(top, std::int64_t{64},
                     static_cast<std::int64_t>(cfg_.stackBytes) - 64);
    proc.stackTop = static_cast<Addr>(top);

    const Addr off = alignDown(proc.stackTop + rng.below(48), 4);
    const RefType type = rng.chance(0.5) ? RefType::DataWrite
                                          : RefType::DataRead;
    emit(proc.asid, proc.base + stackOffset + off, type, false);
}

template <bool supervisor>
inline void
SyntheticGen::stepInstruction(ProcState &proc, Rng &rng)
{
    stepCode<supervisor>(proc, rng);
    if (rng.chance(cfg_.dataRefProb))
        stepData<supervisor>(proc, rng);
    if (!supervisor && rng.chance(cfg_.stackRefProb))
        stepStack(proc, rng);
}

void
SyntheticGen::refill()
{
    queueLen_ = queuePos_ = 0;
    // A local copy of the RNG stays in registers: emit's memcpy stores
    // may alias any member, so rng_'s state would go through memory on
    // every draw.
    Rng rng = rng_;
    // Mode feedback: enter a supervisor burst whenever the running
    // supervisor fraction has fallen below target.
    if (osBurstLeft_ == 0 && cfg_.osRefFrac > 0.0) {
        const double frac = produced_ == 0
            ? 0.0
            : static_cast<double>(supRefs_) /
                static_cast<double>(produced_);
        if (frac < cfg_.osRefFrac)
            osBurstLeft_ = osBurstDist_.sample(rng);
    }

    // Each mode is its own instantiation, so the user/supervisor
    // choices inside one instruction are made at compile time.
    ProcState &proc = procs_[activeProc_];
    if (osBurstLeft_ > 0) {
        --osBurstLeft_;
        stepInstruction<true>(proc, rng);
    } else {
        stepInstruction<false>(proc, rng);
    }
    rng_ = rng;
}

} // namespace vmp::trace
