#include "sim/event.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vmp
{

EventId
EventQueue::schedule(Tick when, Callback cb, const char *name)
{
    if (!cb)
        panic("scheduling empty callback '", name, "'");
    return schedule(when, box(std::move(cb)), name);
}

EventId
EventQueue::schedule(Tick when, Thunk fn, const char *name)
{
    if (when < now_)
        panic("scheduling event '", name, "' at ", when,
              " in the past (now ", now_, ")");
    if (!fn)
        panic("scheduling empty callback '", name, "'");
    const EventId id{when, nextSeq_++};
    heap_.push_back(Entry{id, static_cast<std::uint32_t>(slots_.put(fn))});
    std::push_heap(heap_.begin(), heap_.end(), later);
    return id;
}

bool
EventQueue::deschedule(EventId &id)
{
    if (!id.valid())
        return false;
    const EventId target = id;
    id.invalidate();
    const auto it = std::find_if(
        heap_.begin(), heap_.end(),
        [&target](const Entry &e) { return e.id == target; });
    if (it == heap_.end() || !slots_[it->slot])
        return false;
    Thunk &fn = slots_[it->slot];
    if (fn.fn == runBox)
        boxes_.take(fn.arg);
    fn = {};
    ++cancelled_;
    dropCancelled();
    return true;
}

void
EventQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
}

void
EventQueue::dropCancelled()
{
    while (cancelled_ != 0 && !heap_.empty() &&
           !slots_[heap_.front().slot]) {
        slots_.take(heap_.front().slot);
        popTop();
        --cancelled_;
    }
}

std::uint32_t
EventQueue::addLane(LaneFn fn, void *ctx)
{
    if (!fn)
        panic("registering a lane with no function");
    if (freeLanes_.empty()) {
        lanes_.push_back(Lane{fn, ctx});
        if (lanes_.size() > laneAt_.size())
            rebuildLanes();
        return static_cast<std::uint32_t>(lanes_.size() - 1);
    }
    const std::uint32_t lane = freeLanes_.back();
    freeLanes_.pop_back();
    lanes_[lane] = Lane{fn, ctx};
    return lane;
}

void
EventQueue::removeLane(std::uint32_t lane)
{
    if (lane >= lanes_.size() || !lanes_[lane].fn)
        return;
    lanes_[lane] = Lane{nullptr, nullptr};
    freeLanes_.push_back(lane);
    if (!laneAt_[lane].valid())
        return;
    laneAt_[lane].invalidate();
    --pendingLanes_;
    replayLane(lane);
}

void
EventQueue::replayLane(std::uint32_t lane)
{
    // An invalid id has when == maxTick, so it never beats a pending one.
    for (std::size_t node = laneAt_.size() + lane; node > 1; node /= 2) {
        const std::uint32_t other = winner_[node ^ 1];
        if (laneAt_[other] < laneAt_[lane])
            lane = other;
        winner_[node / 2] = lane;
    }
}

void
EventQueue::rebuildLanes()
{
    std::size_t leaves = 1;
    while (leaves < lanes_.size())
        leaves *= 2;
    laneAt_.resize(leaves);
    winner_.resize(2 * leaves);
    for (std::size_t lane = 0; lane < leaves; ++lane)
        winner_[leaves + lane] = static_cast<std::uint32_t>(lane);
    for (std::size_t node = leaves - 1; node > 0; --node) {
        const std::uint32_t left = winner_[2 * node];
        const std::uint32_t right = winner_[2 * node + 1];
        winner_[node] = laneAt_[right] < laneAt_[left] ? right : left;
    }
}

void
EventQueue::stepLane()
{
    const std::uint32_t lane = winner_[1];
    now_ = laneAt_[lane].when;
    laneAt_[lane].invalidate();
    --pendingLanes_;
    replayLane(lane);
    ++dispatched_;
    // A copy: the step may register lanes and reallocate lanes_.
    const Lane l = lanes_[lane];
    l.fn(l.ctx);
}

void
EventQueue::badLaneSchedule(std::uint32_t lane, Tick when) const
{
    if (lane >= lanes_.size() || !lanes_[lane].fn)
        panic("scheduling unregistered lane ", lane);
    if (laneAt_[lane].valid())
        panic("scheduling lane ", lane, " at ", when,
              " while its step at ", laneAt_[lane].when, " is pending");
    panic("scheduling lane ", lane, " at ", when,
          " outside [now ", now_, ", maxTick)");
}

void
EventQueue::stepTop()
{
    const Entry top = heap_.front();
    popTop();
    dropCancelled();
    now_ = top.id.when;
    // Copy the thunk out and free its slot before running it, so it
    // may freely schedule (reusing the slot) or deschedule other
    // events.
    const Thunk fn = slots_.take(top.slot);
    ++dispatched_;
    fn();
}

bool
EventQueue::step()
{
    if (laneFirst())
        stepLane();
    else if (!heap_.empty())
        stepTop();
    else
        return false;
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    // Restore the enclosing limit even if a callback throws.
    struct LimitGuard
    {
        Tick &limit;
        Tick saved;
        ~LimitGuard() { limit = saved; }
    } guard{limit_, limit_};
    limit_ = limit;
    for (;;) {
        if (laneFirst()) {
            if (firstLane().when > limit)
                break;
            stepLane();
        } else if (!heap_.empty() && heap_.front().id.when <= limit) {
            stepTop();
        } else {
            break;
        }
    }
    if (now_ < limit && limit != maxTick)
        now_ = limit;
    return now_;
}

void
EventQueue::reset()
{
    heap_.clear();
    slots_ = {};
    boxes_ = {};
    cancelled_ = 0;
    for (auto &at : laneAt_)
        at.invalidate();
    rebuildLanes();
    pendingLanes_ = 0;
    limit_ = maxTick;
    now_ = 0;
    nextSeq_ = 0;
    dispatched_ = 0;
}

} // namespace vmp
