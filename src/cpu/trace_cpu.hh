/**
 * @file
 * Trace-driven processor model: replays a reference stream against its
 * cache at the 68020 execution rate, trapping into the software miss
 * handler (the CacheController) on misses and servicing bus-monitor
 * interrupts between references. This is the workhorse of the
 * multiprocessor performance experiments (Sections 5.2, 5.3).
 *
 * Runs of hits retire ahead of the event queue while no other board
 * can reach this one, bit-identically (DESIGN.md "Lookahead").
 */

#ifndef VMP_CPU_TRACE_CPU_HH
#define VMP_CPU_TRACE_CPU_HH

#include <algorithm>
#include <functional>
#include <vector>

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
             proto::CacheController &controller, trace::RefSource &refs);
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

    /** The CPUs sharing the queue for one run (core::Machine sets
     *  them). A completion callback must not touch another board
     *  synchronously: a peer's batch may be out. */
    void setPeers(const std::vector<TraceCpu *> &cpus);

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
    /** The pending step presents ref_, or takes the boundary of one
     *  a batch retired (End: found the trace exhausted). */
    enum class Pending : std::uint8_t { Present, Boundary, End };

    struct Peer
    {
        std::uint32_t lane;
        const proto::CacheController *controller;
    };

    /**
     * Take the next instruction boundary: fetch the next reference
     * into ref_ and return true, or handle a failstop, interrupt
     * service or the end of the trace (already found when
     * @p exhausted) and return false.
     */
    bool fetch(bool exhausted = false);
    /** fetch(), then schedule the reference's presentation as the
     *  CPU's lane step. */
    void step();
    /** Lane step: present ref_ (or take a batch's boundary), then
     *  retire the hits that follow in a batch. */
    void present();
    /** The miss on ref_ is resolved: retire it and step on. */
    void missDone();
    /**
     * The tick a batch whose first reference presents at @p at keeps
     * its references and their boundaries below: nextTick(), unless
     * that is the first lane step and the peers' reach pushes it out
     * (DESIGN.md "Lookahead").
     */
    Tick
    lookahead(Tick at) const
    {
        const Tick next = events_.nextTick();
        const EventId &first = events_.firstLane();
        if (peers_.empty() || !first.valid() || next != first.when)
            return next;
        // No peer reaches further than kTrapEntryNs past its step. A
        // scan costs a few ns a peer and a batched reference saves a
        // dispatch: scan only if one more reference per four fits.
        Tick bound = std::min(events_.heapTop(), next + proto::kTrapEntryNs);
        if (events_.runLimit() < bound)
            bound = events_.runLimit() + 1;
        if (bound <= at + kRefNs * (1 + peers_.size() / 4))
            return next;
        return scanPeers(at, bound);
    }
    /** Lower @p bound to the peers' reach, stopping once no reference
     *  at @p at fits below it. */
    Tick scanPeers(Tick at, Tick bound) const;

    /** Full-speed time of one reference. */
    static constexpr Tick kRefNs = refNs();

    CpuId id_;
    EventQueue &events_;
    proto::CacheController &controller_;
    trace::RefSource &source_;
    /** This CPU's lane in events_: at most one presentation pending. */
    std::uint32_t lane_;
    Done done_;
    /** The reference being presented (held between step() and
     *  present(), and across a miss). */
    trace::MemRef ref_;
    Pending pending_ = Pending::Present;
    std::vector<Peer> peers_;
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
