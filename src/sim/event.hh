/**
 * @file
 * Minimal discrete-event simulation kernel. Components schedule plain
 * continuations (Thunk: a function, a context and an argument) at
 * absolute ticks; the queue dispatches them in (tick, insertion-order)
 * order, which makes simulations deterministic for a given seed.
 * Recurring per-component steps (a trace CPU's next reference) go
 * through lanes, which share that order without a heap entry per step.
 * Read-only queries (heap top, run limit, earliest lane, a lane's
 * pending step) let a trace CPU bound how far it may retire hits ahead
 * of the queue (cpu/trace_cpu.hh).
 */

#ifndef VMP_SIM_EVENT_HH
#define VMP_SIM_EVENT_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
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

/** A continuation as plain data: calling it runs fn(ctx, arg), usually
 *  a member function on a record index, so it allocates nothing. */
struct Thunk
{
    using Fn = void (*)(void *ctx, std::uint64_t arg);

    Fn fn = nullptr;
    void *ctx = nullptr;
    std::uint64_t arg = 0;

    explicit operator bool() const { return fn != nullptr; }
    void operator()() const { fn(ctx, arg); }

    /** A thunk running (obj->*M)(arg), or (obj->*M)() for a member
     *  that takes no argument. */
    template <auto M, class T>
    static Thunk
    to(T *obj, std::uint64_t arg = 0)
    {
        return {[](void *ctx, std::uint64_t a) {
                    T *self = static_cast<T *>(ctx);
                    if constexpr (std::is_invocable_v<decltype(M), T *,
                                                      std::uint64_t>)
                        (self->*M)(a);
                    else
                        (self->*M)();
                },
                obj, arg};
    }
};

/**
 * Records held by index until taken, the index recycled: a pending
 * operation's state, or a cold caller's closure boxed so that a plain
 * record (a Thunk, a bus completion) can carry its index. A record
 * never taken is destroyed with the pool.
 */
template <class T>
class RecordPool
{
  public:
    std::uint64_t
    put(T item)
    {
        const std::uint64_t index =
            free_.empty() ? items_.size() : free_.back();
        if (free_.empty())
            items_.emplace_back();
        else
            free_.pop_back();
        items_[index] = std::move(item);
        return index;
    }

    T &operator[](std::uint64_t index) { return items_[index]; }

    /** Remove and return record @p index, freeing the index. */
    T
    take(std::uint64_t index)
    {
        free_.push_back(index);
        return std::exchange(items_[index], T{});
    }

  private:
    std::vector<T> items_;
    std::vector<std::uint64_t> free_;
};

/**
 * Discrete-event queue. Not thread-safe: the whole simulator is single
 * threaded by design (the modelled concurrency lives in simulated time).
 *
 * A binary min-heap of trivially copyable {EventId, slot} entries; the
 * thunks live in a slot pool so sifting never moves them. A cold
 * caller's closure (the Callback overloads) is boxed, and its slot's
 * thunk takes it out and runs it: every event dispatches the same way.
 * Cancellation is lazy: deschedule() empties the slot and the entry is
 * dropped when it reaches the top. The top of the heap is never a
 * cancelled entry between calls.
 *
 * Beside the heap sit lanes: registered {function, context} pairs with
 * at most one pending step each. A lane step draws its seq from the
 * same counter as schedule(), and every dispatch takes whichever of
 * the heap top and the earliest lane comes first in (tick, seq), so
 * moving a component from closures to a lane changes no dispatch
 * order. The earliest lane is the root of a winner tree over the
 * pending steps, its leaves padded to a power of two: scheduling a
 * lane climbs from its leaf while it wins, and dispatching or
 * removing one replays its leaf-to-root path, so no step scans the
 * registry.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Body of a lane step; receives the context given to addLane(). */
    using LaneFn = void (*)(void *);

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending (not cancelled) events, lane steps included. */
    std::size_t
    pending() const
    {
        return heap_.size() - cancelled_ + pendingLanes_;
    }

    /** Total number of events dispatched so far, lane steps included. */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * Schedule @p fn at absolute time @p when (>= now). Returns a handle
     * usable with deschedule(). @p name only labels panic messages.
     */
    EventId schedule(Tick when, Thunk fn, const char *name = "");

    EventId schedule(Tick when, Callback cb, const char *name = "");

    /** Schedule @p fn @p delta ticks from now. */
    EventId
    scheduleIn(Tick delta, Thunk fn, const char *name = "")
    {
        return schedule(now_ + delta, fn, name);
    }

    EventId
    scheduleIn(Tick delta, Callback cb, const char *name = "")
    {
        return schedule(now_ + delta, std::move(cb), name);
    }

    /** @p cb as a one-shot thunk; a box never run lives until reset(). */
    Thunk
    box(Callback cb)
    {
        return {runBox, this, boxes_.put(std::move(cb))};
    }

    /**
     * Remove a previously scheduled event. Returns true if the event was
     * still pending (and is now cancelled), false if it already ran or
     * the id is invalid.
     */
    bool deschedule(EventId &id);

    /**
     * Register a lane that runs @p fn(@p ctx) at each of its steps.
     * Returns its index; indices of removed lanes are reused.
     */
    std::uint32_t addLane(LaneFn fn, void *ctx);

    /**
     * Schedule @p lane's next step at absolute time @p when, in
     * [now, maxTick). Panics if the lane already has a step pending.
     */
    void
    scheduleLane(std::uint32_t lane, Tick when)
    {
        if (lane >= lanes_.size() || laneAt_[lane].valid() ||
            when < now_ || when == maxTick || !lanes_[lane].fn)
            badLaneSchedule(lane, when);
        const EventId id{when, nextSeq_++};
        laneAt_[lane] = id;
        ++pendingLanes_;
        // The lane's key only fell, so it climbs while it wins; above
        // the first node it loses at, nothing changes.
        for (std::size_t node = (laneAt_.size() + lane) / 2; node != 0;
             node /= 2) {
            std::uint32_t &winner = winner_[node];
            if (winner != lane && !(id < laneAt_[winner]))
                return;
            winner = lane;
        }
    }

    /**
     * Unregister @p lane, cancelling its pending step if it has one.
     * Never panics (an unregistered index is ignored), so an owner may
     * call it from a destructor while an exception unwinds out of
     * run().
     */
    void removeLane(std::uint32_t lane);

    /** Size of the lane registry (registered and free indices). */
    std::size_t laneCapacity() const { return lanes_.size(); }

    /**
     * Run events until the queue is empty or @p limit is reached.
     * @return the tick at which the run stopped.
     */
    Tick run(Tick limit = maxTick);

    /** Dispatch exactly one event if any is pending. */
    bool step();

    /** Earliest pending heap event's tick (lanes aside), or maxTick. */
    Tick
    heapTop() const
    {
        return heap_.empty() ? maxTick : heap_.front().id.when;
    }

    /** Limit of the run() in progress; maxTick outside run(). */
    Tick runLimit() const { return limit_; }

    /** The earliest pending lane step (the winner tree's root), or an
     *  invalid id. */
    const EventId &firstLane() const { return laneAt_[winner_[1]]; }

    /** Registered @p lane's pending step, or an invalid id. */
    const EventId &laneStep(std::uint32_t lane) const { return laneAt_[lane]; }

    /**
     * Earliest tick at which anything else can happen: the first
     * pending event, or one past the limit of the run() in progress,
     * whichever is sooner. maxTick when neither exists.
     */
    Tick
    nextTick() const
    {
        const Tick next = std::min(heapTop(), firstLane().when);
        return limit_ < next ? limit_ + 1 : next;
    }

    /**
     * Drop all pending events and lane steps and reset time to zero.
     * Lane registrations survive, so their owners may still schedule
     * or remove them.
     */
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

    /** A registered lane; fn is null for a free index. */
    struct Lane
    {
        LaneFn fn;
        void *ctx;
    };

    static void
    runBox(void *queue, std::uint64_t index)
    {
        static_cast<EventQueue *>(queue)->boxes_.take(index)();
    }

    void popTop();
    /** Pop cancelled entries off the top, recycling their slots. */
    void dropCancelled();
    /** True if the earliest lane step precedes the heap top. */
    bool
    laneFirst() const
    {
        const EventId &first = firstLane();
        return heap_.empty() ? first.valid() : first < heap_.front().id;
    }
    /** Dispatch the heap top (not cancelled, by the invariant). */
    void stepTop();
    /** Dispatch the earliest lane step. */
    void stepLane();
    /** Replay @p lane's leaf-to-root path after its key rose. */
    void replayLane(std::uint32_t lane);
    /** Size the leaves for the registry and recompute every node. */
    void rebuildLanes();
    [[noreturn]] void badLaneSchedule(std::uint32_t lane, Tick when) const;

    Tick now_ = 0;
    /** Limit of the run() in progress (maxTick outside run()). */
    Tick limit_ = maxTick;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::vector<Entry> heap_;
    /** Thunk per slot; empty for a free or cancelled slot. */
    RecordPool<Thunk> slots_;
    RecordPool<Callback> boxes_;
    /** Cancelled entries still in the heap. */
    std::size_t cancelled_ = 0;
    std::vector<Lane> lanes_;
    /**
     * Winner-tree leaves: the pending step per lane, invalid when none
     * is pending, padded with invalid ids to a power of two (at least
     * one leaf, so the root always names a lane).
     */
    std::vector<EventId> laneAt_ = std::vector<EventId>(1);
    /**
     * Winner tree over laneAt_: leaf node leaves + l holds lane l, and
     * inner node n holds the lane with the earlier (tick, seq) of
     * nodes 2n and 2n+1. The root, node 1, is the lane of the earliest
     * pending step, if any step is pending. Node 0 is unused.
     */
    std::vector<std::uint32_t> winner_ = {0, 0};
    std::vector<std::uint32_t> freeLanes_;
    std::size_t pendingLanes_ = 0;
};

} // namespace vmp

#endif // VMP_SIM_EVENT_HH
