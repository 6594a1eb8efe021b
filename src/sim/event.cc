#include "sim/event.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vmp
{

EventId
EventQueue::schedule(Tick when, Callback cb, const char *name)
{
    if (when < now_)
        panic("scheduling event '", name, "' at ", when,
              " in the past (now ", now_, ")");
    if (!cb)
        panic("scheduling empty callback '", name, "'");
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(cb));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(cb);
    }
    const EventId id{when, nextSeq_++};
    heap_.push_back(Entry{id, slot});
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
    slots_[it->slot] = nullptr;
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
        freeSlots_.push_back(heap_.front().slot);
        popTop();
        --cancelled_;
    }
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Entry top = heap_.front();
    popTop();
    dropCancelled();
    now_ = top.id.when;
    // Move the callback out and free its slot before running it, so
    // the callback may freely schedule (reusing the slot) or
    // deschedule other events.
    Callback cb = std::move(slots_[top.slot]);
    slots_[top.slot] = nullptr;
    freeSlots_.push_back(top.slot);
    ++dispatched_;
    cb();
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
    while (!heap_.empty() && heap_.front().id.when <= limit)
        step();
    if (now_ < limit && limit != maxTick)
        now_ = limit;
    return now_;
}

void
EventQueue::advanceTo(Tick when)
{
    if (when < now_ || when >= nextTick())
        panic("advancing the clock to ", when, " outside [now ", now_,
              ", next event ", nextTick(), ")");
    now_ = when;
}

void
EventQueue::reset()
{
    heap_.clear();
    slots_.clear();
    freeSlots_.clear();
    cancelled_ = 0;
    limit_ = maxTick;
    now_ = 0;
    nextSeq_ = 0;
    dispatched_ = 0;
}

} // namespace vmp
