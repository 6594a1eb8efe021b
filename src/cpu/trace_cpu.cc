#include "cpu/trace_cpu.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace vmp::cpu
{

TraceCpu::TraceCpu(CpuId id, EventQueue &events,
                   proto::CacheController &controller,
                   trace::RefSource &refs)
    : id_(id), events_(events), controller_(controller), source_(refs),
      lane_(events.addLane(
          [](void *cpu) { static_cast<TraceCpu *>(cpu)->present(); },
          this))
{
    // Polled while executing; idle before and after, when it must
    // still take interrupts (it may own pages others need).
    controller_.setIrqService(proto::IrqService::Idle);
}

TraceCpu::~TraceCpu()
{
    controller_.setIrqService(proto::IrqService::Off);
    // Cancels a pending step too, which matters when an exception
    // unwinds out of the run loop and destroys the CPU mid-trace.
    events_.removeLane(lane_);
}

void
TraceCpu::setPeers(const std::vector<TraceCpu *> &cpus)
{
    peers_.clear();
    for (const TraceCpu *cpu : cpus) {
        if (cpu != this)
            peers_.push_back(Peer{cpu->lane_, &cpu->controller_});
    }
}

void
TraceCpu::requestFailstop()
{
    if (halted_)
        return;
    if (running_) {
        // Halt at the next instruction boundary (step() entry).
        pendingFailstop_ = true;
        return;
    }
    halted_ = true;
    controller_.setIrqService(proto::IrqService::Off);
}

void
TraceCpu::resume()
{
    if (!halted_)
        return;
    halted_ = false;
    pendingFailstop_ = false;
    if (exhausted_ || done_ == nullptr) {
        // Nothing left to replay (or never started): back to idle,
        // which picks up any interrupt words that queued while dead.
        controller_.setIrqService(proto::IrqService::Idle);
        return;
    }
    running_ = true;
    controller_.setIrqService(proto::IrqService::Polled);
    step();
}

void
TraceCpu::run(Done done)
{
    if (running_)
        panic("cpu", id_, " started twice");
    running_ = true;
    done_ = std::move(done);
    startedAt_ = events_.now();
    controller_.setIrqService(proto::IrqService::Polled);
    step();
}

bool
TraceCpu::fetch(bool exhausted)
{
    // Failstop lands at the instruction boundary: halt without firing
    // done_ (a dead board never reports completion). A halted processor
    // takes no interrupts; its monitor keeps queueing words, which is
    // exactly the wedge the recovery subsystem exists to break.
    if (pendingFailstop_ || halted_) {
        pendingFailstop_ = false;
        halted_ = true;
        running_ = false;
        finishedAt_ = events_.now();
        controller_.setIrqService(proto::IrqService::Off);
        return false;
    }

    // Bus-monitor interrupts are taken between instructions.
    if (controller_.interruptPending()) {
        controller_.serviceInterrupts(Thunk::to<&TraceCpu::step>(this));
        return false;
    }

    if (exhausted || !source_.next(ref_)) {
        running_ = false;
        exhausted_ = true;
        finishedAt_ = events_.now();
        if (done_)
            done_();
        // Words that arrived exactly at the boundary are picked up by
        // the idle loop.
        controller_.setIrqService(proto::IrqService::Idle);
        return false;
    }
    return true;
}

void
TraceCpu::step()
{
    // Full-speed execution charge for this reference, then present it
    // to the cache. Every entry here (run(), resume(), interrupt
    // service, a miss's done-chain) sits inside other work that may
    // still schedule, so it never batches.
    if (fetch())
        events_.scheduleLane(lane_, events_.now() + kRefNs);
}

void
TraceCpu::present()
{
    const Pending mode = std::exchange(pending_, Pending::Present);
    if (mode == Pending::Present) {
        const bool write = ref_.isWrite();
        const auto res = controller_.lookup(ref_.asid, ref_.vaddr, write,
                                            ref_.supervisor);
        if (!res.hit) {
            // A miss blocks us inside the controller.
            controller_.miss(res, ref_.asid, ref_.vaddr, write,
                             ref_.supervisor,
                             Thunk::to<&TraceCpu::missDone>(this));
            return;
        }
        ++refs_;
    }
    if (!fetch(mode == Pending::End))
        return;

    // The batch: retire the references at at, at + kRefNs, ... without
    // dispatching while each one and its boundary fall below the
    // lookahead bound. The first one that is not a plain hit, a
    // boundary with work to do, or the bound ends it with one step at
    // its tick: below the bound, where nothing created meanwhile can
    // land, that step sorts as one event per reference would.
    Tick at = events_.now() + kRefNs;
    const Tick bound = lookahead(at);
    while (at + kRefNs < bound &&
           controller_.cache().accessHit(ref_.asid, ref_.vaddr,
                                         ref_.isWrite(), ref_.supervisor) !=
               cache::noSlot) {
        ++refs_;
        const bool busy =
            pendingFailstop_ || halted_ || controller_.interruptPending();
        if (busy || !source_.next(ref_)) {
            pending_ = busy ? Pending::Boundary : Pending::End;
            break;
        }
        at += kRefNs;
    }
    events_.scheduleLane(lane_, at);
}

void
TraceCpu::missDone()
{
    ++refs_;
    step();
}

Tick
TraceCpu::scanPeers(Tick at, Tick bound) const
{
    // A peer reaches one tick past its step if it is in phase and
    // ahead (it wins the tie at that tick) or has an interrupt word
    // pending (its drain may write the bus at once).
    const Tick now = events_.now();
    for (const Peer &peer : peers_) {
        const Tick step = events_.laneStep(peer.lane).when;
        if (step >= bound - 1)
            continue;
        const bool tie = step > now && (step - now) % kRefNs == 0;
        bound = std::min(bound, step + (tie ||
                                        peer.controller->interruptPending()
                                            ? 1
                                            : proto::kTrapEntryNs));
        if (at + kRefNs >= bound)
            break;
    }
    return bound;
}

Tick
TraceCpu::elapsed() const
{
    const Tick end = running_ ? events_.now() : finishedAt_;
    return end - startedAt_;
}

Tick
TraceCpu::idealTicks() const
{
    return refs_.value() * kRefNs;
}

double
TraceCpu::performance() const
{
    const Tick actual = elapsed();
    return actual == 0
        ? 1.0
        : static_cast<double>(idealTicks()) /
            static_cast<double>(actual);
}

double
TraceCpu::missRatio() const
{
    return refs_.value() == 0
        ? 0.0
        : static_cast<double>(controller_.misses().value()) /
            static_cast<double>(refs_.value());
}

void
TraceCpu::registerStats(StatGroup &group) const
{
    group.addCounter("refs", "memory references retired", refs_);
}

} // namespace vmp::cpu
