/**
 * @file
 * StreamingSink: live export of the observability event stream.
 *
 * PR 5's EventTracer is post-hoc and ring-capacity-bound: events that
 * scroll out of a track's ring before the run ends are gone. The
 * streaming sink rides the tracer's sink seam — sinks see every event
 * at record() time, *before* ring storage — so it observes the
 * complete stream regardless of ring capacity. Events are copied into
 * a bounded staging buffer on the simulation hot path (a push_back
 * into reserved storage, no I/O) and serialized out in batches at
 * flush boundaries, as incrementally-valid Chrome-trace JSON:
 *
 *   {"displayTimeUnit": "ns", "traceEvents": [
 *   {event},
 *   {event},
 *   ...
 *   ]}
 *
 * Every flush leaves the output at a line boundary, so a stream cut
 * off mid-run (crashed consumer, truncated file) is recovered by
 * recoverTruncated(): trim to the last complete line and close the
 * document. Records come from obs::putChromeRecord, the same
 * serializer obs::writeChromeTrace() uses, so a cleanly close()d
 * stream holds exactly the records the post-hoc file holds for the
 * same run, modulo order: the post-hoc exporter sorts by (tick,
 * track), the stream is in record order.
 *
 * Backpressure: the staging buffer is bounded per track. When the
 * consumer falls behind — autoFlush disabled and flush() not called
 * often enough — events beyond a track's staging bound are *dropped
 * and counted* (droppedOn/registerStats), never queued unboundedly
 * and never blocking the simulation. With autoFlush on (the default)
 * staging drains synchronously before any bound is hit, so drop
 * counters stay zero.
 *
 * The sink is pure observation: it never schedules simulator events
 * and never draws from any Rng, so an attached sink leaves simulated
 * time bit-identical (host wall-clock is the only cost). Detached,
 * the tracer's sink fan-out loop is empty — the one-untaken-branch
 * contract of the null-tracer seam is unchanged.
 *
 * Rolled-up gauge snapshots (bus utilization, FIFO depths, miss-phase
 * EWMAs, arena occupancy, fencing counters, ...) are sampled at each
 * flush boundary into a side channel: one compact JSON object per
 * line (JSONL) on the optional gauge stream. Built-in gauges cover
 * the sink itself and the miss-phase EWMAs it folds from MissPhase
 * events; telemetry::attachSystemGauges() registers providers for a
 * whole system.
 */

#ifndef VMP_TELEMETRY_STREAMING_SINK_HH
#define VMP_TELEMETRY_STREAMING_SINK_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event_tracer.hh"
#include "obs/gauges.hh"
#include "sim/event.hh"
#include "sim/stats.hh"

namespace vmp::telemetry
{

/** Streaming-sink tuning knobs. */
struct StreamConfig
{
    /** Staged-event bound per track; beyond it events are dropped
     *  (and counted) until the next flush. */
    std::size_t stagingPerTrack = 8192;
    /** Total staged events that trigger an automatic flush. */
    std::size_t flushThreshold = 2048;
    /** Flush automatically when flushThreshold is reached. Off, the
     *  consumer must call flush() itself — the backpressure/drop
     *  path, exercised by tests. */
    bool autoFlush = true;
};

/** Drains an EventTracer's sink seam to a Chrome-trace JSON stream. */
class StreamingSink
{
  public:
    /** Provider invoked at each gauge sample to append live values. */
    using GaugeProvider = std::function<void(obs::GaugeSet &)>;

    /**
     * @p events_out receives the Chrome-trace stream (file, socket
     * streambuf, stringstream — anything ostream). The sink must
     * outlive the tracer's recording; the stream must outlive the
     * sink.
     */
    explicit StreamingSink(std::ostream &events_out,
                           StreamConfig config = {});

    /** Gauge snapshots (JSONL) go to @p os; nullptr disables. */
    void setGaugeStream(std::ostream *os) { gauges_ = os; }

    /** Register a live-gauge provider (sampled at every flush). */
    void addGaugeProvider(GaugeProvider provider);

    /**
     * Attach to @p tracer: registers this sink and writes the stream
     * header plus thread-name metadata for every track registered so
     * far (tracks registered later are announced at close()).
     * @p events timestamps gauge snapshots. Attach at most once,
     * before any traffic.
     */
    void attach(obs::EventTracer &tracer, const EventQueue &events);

    /** Serialize and write everything staged, then sample gauges. */
    void flush();

    /**
     * Flush, announce any late-registered tracks, and terminate the
     * JSON document. The sink records (and drops) nothing afterwards.
     */
    void close();

    /** Sample every gauge (built-ins + providers) without flushing. */
    obs::GaugeSet sampleGauges() const;

    std::uint64_t eventsStreamed() const { return streamed_.value(); }
    std::uint64_t flushes() const { return flushes_.value(); }
    std::uint64_t droppedTotal() const { return dropped_.value(); }
    /** Events dropped on @p track because staging was full. */
    std::uint64_t droppedOn(std::uint16_t track) const;
    bool closed() const { return closed_; }

    /** Streaming counters into a stat group (system "obs" group). */
    void registerStats(StatGroup &group) const;

    /**
     * Make a truncated stream parseable: trim to the last complete
     * line, strip the trailing separator and close the document. A
     * complete document passes through unchanged. The result parses
     * as long as the stream reached its first flush boundary.
     */
    static std::string recoverTruncated(std::string text);

  private:
    void onEvent(const obs::TraceEvent &event);
    /** Append one record (separator included) to wbuf_. */
    void writeEvent(const obs::TraceEvent &event);
    /** Append a track's thread-name metadata record to wbuf_. */
    void announceTrack(std::uint16_t track);
    /** Drain wbuf_ to the output stream. */
    void drainBuffer();

    std::ostream &out_;
    std::ostream *gauges_ = nullptr;
    StreamConfig cfg_;
    obs::EventTracer *tracer_ = nullptr;
    const EventQueue *events_ = nullptr;

    /** Arrival-ordered staging; per-track counts enforce the bound. */
    std::vector<obs::TraceEvent> staging_;
    std::vector<std::size_t> stagedPerTrack_;
    std::vector<std::uint64_t> droppedPerTrack_;
    /** Tracks whose thread-name metadata has been written. */
    std::vector<bool> announced_;

    /** Serialization batch buffer: one write() per flush boundary. */
    std::string wbuf_;

    /** Per-phase EWMA of miss-phase duration, in ns (-1 = no sample). */
    std::vector<double> phaseEwmaNs_;

    std::vector<GaugeProvider> providers_;

    bool wroteFirst_ = false;
    bool closed_ = false;
    Counter streamed_;
    Counter dropped_;
    Counter flushes_;
    Counter gaugeSamples_;
};

} // namespace vmp::telemetry

#endif // VMP_TELEMETRY_STREAMING_SINK_HH
