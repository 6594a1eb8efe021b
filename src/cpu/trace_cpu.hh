/**
 * @file
 * Trace-driven processor model: replays a reference stream against its
 * cache at the 68020 execution rate, trapping into the software miss
 * handler (the CacheController) on misses and servicing bus-monitor
 * interrupts between references. This is the workhorse of the
 * multiprocessor performance experiments (Sections 5.2, 5.3).
 */

#ifndef VMP_CPU_TRACE_CPU_HH
#define VMP_CPU_TRACE_CPU_HH

#include <functional>

#include "cpu/timing.hh"
#include "proto/controller.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "trace/ref.hh"

namespace vmp::cpu
{

/** One trace-driven processor. */
class TraceCpu
{
  public:
    using Done = std::function<void()>;

    TraceCpu(CpuId id, EventQueue &events,
             proto::CacheController &controller, trace::RefSource &refs,
             const M68020Timing &timing = {});
    ~TraceCpu();

    /** Start executing; @p done fires when the trace is exhausted. */
    void run(Done done);

    /**
     * Request a failstop: the processor halts at the next instruction
     * boundary (the paper's failure model is failstop, not mid-
     * operation corruption), without firing the run() completion — a
     * dead board never reports. If the CPU is already idle it halts
     * immediately. The system run loop must account for halted CPUs.
     */
    void requestFailstop();

    /**
     * Restart after a failstop (hot-rejoin): resumes the trace from
     * the next unreplayed reference, or returns to the idle/interrupt-
     * service loop if the trace was already exhausted.
     */
    void resume();

    /** True while halted by a failstop. */
    bool halted() const { return halted_; }

    /** True once the trace has been fully replayed (done fired). */
    bool finished() const { return exhausted_; }

    bool running() const { return running_; }
    CpuId cpuId() const { return id_; }

    // --- statistics ---
    std::uint64_t refsExecuted() const { return refs_.value(); }
    const Counter &refsRetired() const { return refs_; }
    Tick startedAt() const { return startedAt_; }
    Tick finishedAt() const { return finishedAt_; }
    /** Total elapsed execution time. */
    Tick elapsed() const;
    /** Full-speed time for the retired references. */
    Tick idealTicks() const;
    /**
     * Processor performance normalized to 1.0 at zero misses — the
     * metric of Figure 3.
     */
    double performance() const;
    /** Miss ratio observed by this CPU (initial misses / references). */
    double missRatio() const;
    void registerStats(StatGroup &group) const;

  private:
    /**
     * Take the next instruction boundary: fetch the next reference
     * into ref_ and return true, or handle a failstop, interrupt
     * service or the end of the trace and return false.
     */
    bool fetch();
    /** fetch(), then schedule the reference's presentation as the
     *  CPU's lane step. */
    void step();
    /** Lane step: present ref_ to the cache, retiring hits inline
     *  while no other event is due before the next reference. */
    void present();

    CpuId id_;
    EventQueue &events_;
    proto::CacheController &controller_;
    trace::RefSource &source_;
    M68020Timing timing_;
    /** timing_.refNs(), computed once. */
    Tick refNs_;
    /** This CPU's lane in events_: at most one presentation pending. */
    std::uint32_t lane_;
    Done done_;
    /** The reference being presented (held between step() and
     *  present(), and across a miss). */
    trace::MemRef ref_;
    bool running_ = false;
    bool pendingFailstop_ = false;
    bool halted_ = false;
    /** Trace fully replayed (distinguishes idle from halted-mid-run). */
    bool exhausted_ = false;
    Tick startedAt_ = 0;
    Tick finishedAt_ = 0;
    Counter refs_;
};

} // namespace vmp::cpu

#endif // VMP_CPU_TRACE_CPU_HH
