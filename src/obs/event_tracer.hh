/**
 * @file
 * EventTracer: per-track ring buffers of typed TraceEvents.
 *
 * Zero-cost-when-disabled contract (the mem::FaultHooks pattern):
 * every instrumented component holds a nullable `obs::EventTracer *`;
 * a null tracer costs one untaken branch per potential event and the
 * simulation is bit-identical to an uninstrumented build. A non-null
 * tracer only *observes* — record() never schedules simulator events,
 * never draws from any Rng, and never mutates component state — so
 * even an ENABLED tracer leaves simulated time bit-identical; the only
 * cost is host wall-clock.
 *
 * Each track (one per board, bus, or inter-bus board) owns a
 * lock-free single-writer ring: the simulator is single-threaded, so
 * "lock-free" here means index-arithmetic with no synchronization at
 * all — a plain power-of-two ring that overwrites the oldest record
 * when full and counts what it dropped. Sinks (e.g. the MissProfiler)
 * see every event at record() time, before ring storage, so folding
 * analyses are exact even when the raw ring has wrapped.
 *
 * Header-only: components in mem/monitor/proto emit events without
 * linking vmp_obs (which carries the profiler and exporters).
 */

#ifndef VMP_OBS_EVENT_TRACER_HH
#define VMP_OBS_EVENT_TRACER_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_event.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace vmp::obs
{

/** Tuning knobs for core::Machine::enableTracing(). */
struct TraceConfig
{
    /** Ring capacity per track, rounded up to a power of two. */
    std::size_t ringCapacity = std::size_t{1} << 15;
};

/**
 * Collects TraceEvents into per-track rings and fans them out to
 * registered sinks. Tracks are registered up front by the system
 * wiring; track ids are dense and stable for the tracer's lifetime.
 */
class EventTracer
{
  public:
    using Sink = std::function<void(const TraceEvent &)>;

    explicit EventTracer(std::size_t ring_capacity = std::size_t{1}
                                                     << 15)
        : capacity_(roundUpPow2(ring_capacity))
    {
    }

    /**
     * Register a named track (e.g. "bus", "cpu3", "c1.ibc") and
     * return its dense id. Names must be unique.
     */
    std::uint16_t
    registerTrack(const std::string &name)
    {
        for (const auto &ring : rings_) {
            if (ring.name == name)
                panic("EventTracer: duplicate track \"", name, "\"");
        }
        if (rings_.size() >= 0xffff)
            panic("EventTracer: too many tracks");
        rings_.emplace_back(name, capacity_);
        return static_cast<std::uint16_t>(rings_.size() - 1);
    }

    /** Attach a sink invoked (in registration order) on every event
     *  before it is stored; sinks outlive recording. */
    void addSink(Sink sink) { sinks_.push_back(std::move(sink)); }

    /**
     * Record one event. Single-writer, no allocation after the ring
     * is built, no simulator side effects. The event's `track` field
     * must name a registered track.
     */
    void
    record(const TraceEvent &event)
    {
        for (const auto &sink : sinks_)
            sink(event);
        Ring &ring = rings_.at(event.track);
        ++recorded_;
        ++ring.recorded;
        if (ring.buf.size() < capacity_) {
            ring.buf.push_back(event);
            return;
        }
        // Overwrite-oldest: `next` is the logical start of the ring.
        ring.buf[ring.next] = event;
        ring.next = (ring.next + 1) & (capacity_ - 1);
        ring.wrapped = true;
        ++ring.dropped;
        ++dropped_;
    }

    std::size_t trackCount() const { return rings_.size(); }

    const std::string &
    trackName(std::uint16_t track) const
    {
        return rings_.at(track).name;
    }

    /** Events recorded on @p track, oldest first (ring unwound). */
    std::vector<TraceEvent>
    events(std::uint16_t track) const
    {
        const Ring &ring = rings_.at(track);
        if (!ring.wrapped)
            return ring.buf;
        std::vector<TraceEvent> out;
        out.reserve(ring.buf.size());
        for (std::size_t i = 0; i < ring.buf.size(); ++i) {
            out.push_back(
                ring.buf[(ring.next + i) & (capacity_ - 1)]);
        }
        return out;
    }

    /** All retained events across tracks, sorted by (at, track). */
    std::vector<TraceEvent>
    allEvents() const
    {
        std::vector<TraceEvent> out;
        for (std::uint16_t t = 0;
             t < static_cast<std::uint16_t>(rings_.size()); ++t) {
            const auto track_events = events(t);
            out.insert(out.end(), track_events.begin(),
                       track_events.end());
        }
        std::stable_sort(
            out.begin(), out.end(),
            [](const TraceEvent &a, const TraceEvent &b) {
                return a.at != b.at ? a.at < b.at
                                    : a.track < b.track;
            });
        return out;
    }

    std::uint64_t recorded() const { return recorded_.value(); }
    std::uint64_t droppedOldest() const { return dropped_.value(); }
    std::size_t ringCapacity() const { return capacity_; }

    /** Events dropped (overwritten) on one track. */
    std::uint64_t
    droppedOn(std::uint16_t track) const
    {
        return rings_.at(track).dropped.value();
    }

    void
    registerStats(StatGroup &group) const
    {
        group.addCounter("events_recorded",
                         "trace events recorded across all tracks",
                         recorded_);
        group.addCounter("events_overwritten",
                         "oldest events overwritten by ring wrap",
                         dropped_);
        // Per-track overwrite loss: sinks see every event before ring
        // storage, so overwrite only loses the *retained* copy — but
        // that is exactly what the post-hoc exporters read, so a
        // non-zero counter here means writeChromeTrace() is showing a
        // truncated track. Track names are sanitized ('.' -> '_') so
        // the flat "group.stat" dump format stays unambiguous.
        for (const Ring &ring : rings_) {
            group.addCounter("overwritten_" + statName(ring.name),
                             "events overwritten on track " +
                                 ring.name,
                             ring.dropped);
        }
    }

    /** Track name as a stat identifier ("c0.bus" -> "c0_bus"). */
    static std::string
    statName(const std::string &track_name)
    {
        std::string out = track_name;
        for (char &c : out) {
            if (c == '.')
                c = '_';
        }
        return out;
    }

  private:
    struct Ring
    {
        Ring(std::string ring_name, std::size_t capacity)
            : name(std::move(ring_name))
        {
            buf.reserve(capacity);
        }

        std::string name;
        std::vector<TraceEvent> buf;
        std::size_t next = 0;
        bool wrapped = false;
        Counter recorded;
        Counter dropped;
    };

    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p < 2 ? 2 : p;
    }

    std::size_t capacity_;
    std::vector<Ring> rings_;
    std::vector<Sink> sinks_;
    Counter recorded_;
    Counter dropped_;
};

} // namespace vmp::obs

#endif // VMP_OBS_EVENT_TRACER_HH
