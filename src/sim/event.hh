/**
 * @file
 * Minimal discrete-event simulation kernel. Components schedule callbacks
 * at absolute ticks; the queue dispatches them in (tick, insertion-order)
 * order, which makes simulations deterministic for a given seed.
 */

#ifndef VMP_SIM_EVENT_HH
#define VMP_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace vmp
{

/** Handle identifying a scheduled event so it can be descheduled. */
struct EventId
{
    Tick when = maxTick;
    std::uint64_t seq = 0;

    bool valid() const { return when != maxTick; }
    void invalidate() { when = maxTick; }

    bool
    operator<(const EventId &other) const
    {
        return when != other.when ? when < other.when : seq < other.seq;
    }

    bool
    operator==(const EventId &other) const
    {
        return when == other.when && seq == other.seq;
    }
};

/**
 * Discrete-event queue. Not thread-safe: the whole simulator is single
 * threaded by design (the modelled concurrency lives in simulated time).
 *
 * A binary min-heap of trivially copyable {EventId, slot} entries; the
 * callbacks live in a recycled slot pool so sifting never moves them.
 * Cancellation is lazy: deschedule() empties the slot and the entry is
 * dropped when it reaches the top. The top of the heap is never a
 * cancelled entry between calls.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending (not cancelled) events. */
    std::size_t pending() const { return heap_.size() - cancelled_; }

    /** Total number of events dispatched so far. */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * Schedule @p cb at absolute time @p when (>= now). Returns a handle
     * usable with deschedule(). @p name only labels panic messages.
     */
    EventId schedule(Tick when, Callback cb, const char *name = "");

    /** Schedule @p cb @p delta ticks from now. */
    EventId
    scheduleIn(Tick delta, Callback cb, const char *name = "")
    {
        return schedule(now_ + delta, std::move(cb), name);
    }

    /**
     * Remove a previously scheduled event. Returns true if the event was
     * still pending (and is now cancelled), false if it already ran or
     * the id is invalid.
     */
    bool deschedule(EventId &id);

    /**
     * Run events until the queue is empty or @p limit is reached.
     * @return the tick at which the run stopped.
     */
    Tick run(Tick limit = maxTick);

    /** Dispatch exactly one event if any is pending. */
    bool step();

    /**
     * Earliest tick at which anything else can happen: the first
     * pending event, or one past the limit of the run() in progress,
     * whichever is sooner. maxTick when neither exists.
     */
    Tick
    nextTick() const
    {
        const Tick next = heap_.empty() ? maxTick : heap_.front().id.when;
        return limit_ < next ? limit_ + 1 : next;
    }

    /**
     * Move the clock to @p when without dispatching anything, for a
     * caller that would otherwise schedule itself there as the very
     * next event. Panics unless now() <= @p when < nextTick().
     */
    void advanceTo(Tick when);

    /** Drop all pending events and reset time to zero. */
    void reset();

  private:
    struct Entry
    {
        EventId id;
        std::uint32_t slot;
    };

    /** Heap order: the earliest (when, seq) sits at the front. */
    static bool
    later(const Entry &a, const Entry &b)
    {
        return b.id < a.id;
    }

    void popTop();
    /** Pop cancelled entries off the top, recycling their slots. */
    void dropCancelled();

    Tick now_ = 0;
    /** Limit of the run() in progress (maxTick outside run()). */
    Tick limit_ = maxTick;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::vector<Entry> heap_;
    /** Callback per slot; empty for a free or cancelled slot. */
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> freeSlots_;
    /** Cancelled entries still in the heap. */
    std::size_t cancelled_ = 0;
};

} // namespace vmp

#endif // VMP_SIM_EVENT_HH
