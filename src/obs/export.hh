/**
 * @file
 * Exporters for recorded traces: Chrome-trace/Perfetto JSON (loadable
 * in chrome://tracing or ui.perfetto.dev, one track per board/bus),
 * Figure-5-style time-series CSVs (bus utilization, interrupt-FIFO
 * depth), and a human-readable metrics snapshot.
 *
 * All exporters are deterministic: events are emitted in (tick, track)
 * order, trace timestamps are exact decimal microseconds and other
 * floating-point values go through Json::numberToString, so two runs
 * with the same seeds produce byte-identical exports.
 */

#ifndef VMP_OBS_EXPORT_HH
#define VMP_OBS_EXPORT_HH

#include <cstddef>
#include <iosfwd>
#include <string>

#include "obs/event_tracer.hh"
#include "obs/gauges.hh"
#include "obs/miss_profiler.hh"
#include "sim/json.hh"

namespace vmp::obs
{

/** Upper bound on one serialized event record (fixed text + name +
 *  eight 20-digit numbers, with headroom). */
inline constexpr std::size_t kMaxRecordBytes = 384;

/**
 * Serialize @p event as one compact Chrome-trace record at @p p (the
 * caller guarantees kMaxRecordBytes of room) and return the end
 * pointer. This is the only TraceEvent-to-record serializer: the
 * post-hoc writeChromeTrace and the live telemetry::StreamingSink
 * both call it, so the two views agree by construction. Spans are "X"
 * complete events (ts/dur in microseconds, kind-specific args),
 * FifoDepth is a "C" counter sample, every other kind an "i"
 * instant; pid is always 0 and tid is the tracer's track id.
 */
char *putChromeRecord(char *p, const TraceEvent &event);

/** Chrome-trace document header; records follow one per line, each
 *  after a "\n" (first) or ",\n" separator. */
inline constexpr char kChromeTraceHeader[] =
    "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
/** Chrome-trace document footer, closing the record array. */
inline constexpr char kChromeTraceFooter[] = "\n]}\n";

/** The "M" thread_name metadata record naming @p track. */
Json chromeTrackMetadata(std::uint16_t track, const std::string &name);

/**
 * Write @p tracer's retained events as a Chrome-trace document:
 * kChromeTraceHeader, one thread_name metadata record per track in
 * track order, every event in (tick, track) order through
 * putChromeRecord, then kChromeTraceFooter — the line layout the
 * streaming sink writes.
 */
void writeChromeTrace(const EventTracer &tracer, std::ostream &os);

/**
 * Bus-utilization time series (Figure-5 style): one row per @p bin_ns
 * bin, one column per track that carried BusTx spans, values the
 * fraction of the bin the bus was busy. Header row names the tracks.
 */
std::string busUtilizationCsv(const EventTracer &tracer,
                              Tick bin_ns = 100'000);

/**
 * Interrupt-FIFO depth time series, long format:
 * `t_us,track,depth,dropped` — one row per FifoDepth sample.
 */
std::string fifoDepthCsv(const EventTracer &tracer);

/**
 * Human-readable snapshot: per-track record/drop totals, per-kind
 * event counts, (when @p profiler is non-null) the per-class miss
 * phase table, and (when @p gauges is non-null) one line per sampled
 * gauge — the hook that surfaces live BudgetController grants, arena
 * occupancy and RecoveryManager fencing counters mid-run instead of
 * only in the end-of-run stat groups (telemetry::collectGauges wires
 * those up for a whole system).
 */
std::string metricsSnapshot(const EventTracer &tracer,
                            const MissProfiler *profiler = nullptr,
                            const GaugeSet *gauges = nullptr);

} // namespace vmp::obs

#endif // VMP_OBS_EXPORT_HH
