/**
 * @file
 * Scripted-program processor: executes a cpu::Program against its cache
 * controller, one op per instruction time, servicing bus-monitor
 * interrupts between ops. Used by the coherence correctness tests and
 * the Section 5.4 lock benchmarks.
 */

#ifndef VMP_CPU_PROGRAM_CPU_HH
#define VMP_CPU_PROGRAM_CPU_HH

#include <array>
#include <functional>

#include "cpu/program.hh"
#include "proto/controller.hh"
#include "sim/event.hh"
#include "sim/stats.hh"

namespace vmp::cpu
{

/** One scripted processor. */
class ProgramCpu
{
  public:
    using Done = std::function<void()>;

    /**
     * @param asid address space the program's cached references use
     * @param max_ops runaway guard: executing more ops is fatal
     */
    ProgramCpu(CpuId id, EventQueue &events,
               proto::CacheController &controller, Asid asid,
               Program program, std::uint64_t max_ops = 10'000'000);
    ~ProgramCpu();

    /** Start execution; @p done fires at Halt (or end of program). */
    void run(Done done);

    bool halted() const { return halted_; }
    CpuId cpuId() const { return id_; }

    /** Register contents (inspect after halt). */
    std::uint32_t reg(std::size_t index) const;
    void setReg(std::size_t index, std::uint32_t value);

    std::uint64_t opsRetired() const { return ops_.value(); }
    Tick startedAt() const { return startedAt_; }
    Tick finishedAt() const { return finishedAt_; }
    Tick elapsed() const;

  private:
    void step();
    void finishOp();
    /** Stop at Halt or the program's end; idle-service from then on. */
    void halt();
    void onNotify(Addr paddr);

    CpuId id_;
    EventQueue &events_;
    proto::CacheController &controller_;
    Asid asid_;
    Program program_;
    std::uint64_t maxOps_;
    Done done_;

    std::array<std::uint32_t, numRegs> regs_{};
    std::size_t pc_ = 0;
    bool running_ = false;
    bool halted_ = false;
    bool waitingNotify_ = false;
    EventId notifyTimeout_{};
    Counter ops_;
    Tick startedAt_ = 0;
    Tick finishedAt_ = 0;
};

} // namespace vmp::cpu

#endif // VMP_CPU_PROGRAM_CPU_HH
