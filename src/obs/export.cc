/**
 * @file
 * Trace exporters: Chrome-trace JSON, time-series CSVs, text snapshot.
 */

#include "obs/export.hh"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

namespace vmp::obs
{

namespace
{

double
usec(Tick ns)
{
    return static_cast<double>(ns) / 1000.0;
}

/** Copy a string literal without a runtime strlen. */
#define VMP_LIT(p, s)                                                 \
    (std::memcpy(p, s, sizeof(s) - 1), (p) += sizeof(s) - 1)

inline char *
putUint(char *p, std::uint64_t v)
{
    return std::to_chars(p, p + 20, v).ptr;
}

/**
 * Nanoseconds as a microsecond decimal with up to three exact
 * fractional digits. It parses back to the correctly rounded double
 * of ns / 1000.
 */
inline char *
putUsec(char *p, std::uint64_t ns)
{
    p = putUint(p, ns / 1000);
    const unsigned frac = static_cast<unsigned>(ns % 1000);
    if (frac != 0) {
        *p++ = '.';
        *p++ = static_cast<char>('0' + frac / 100);
        *p++ = static_cast<char>('0' + frac / 10 % 10);
        *p++ = static_cast<char>('0' + frac % 10);
    }
    return p;
}

inline char *
putBool(char *p, bool v)
{
    if (v)
        VMP_LIT(p, "true");
    else
        VMP_LIT(p, "false");
    return p;
}

/** Copy a name from the fixed identifier tables (no escaping
 *  needed). */
inline char *
putName(char *p, const char *s)
{
    while (*s != '\0')
        *p++ = *s++;
    return p;
}

} // namespace

char *
putChromeRecord(char *p, const TraceEvent &event)
{
    VMP_LIT(p, "{\"name\":\"");
    if (isSpan(event.kind)) {
        p = putName(p, event.kind == EventKind::MissPhase
                           ? missPhaseName(static_cast<MissPhase>(
                                 event.aux & ~kNestedMissBit))
                           : eventKindName(event.kind));
        VMP_LIT(p, "\",\"ph\":\"X\",\"pid\":0,\"tid\":");
        p = putUint(p, event.track);
        VMP_LIT(p, ",\"ts\":");
        p = putUsec(p, event.at);
        VMP_LIT(p, ",\"dur\":");
        p = putUsec(p, event.arg0);
        VMP_LIT(p, ",\"args\":{");
        switch (event.kind) {
          case EventKind::BusTx:
          case EventKind::Copy:
            VMP_LIT(p, "\"addr\":");
            p = putUint(p, event.addr);
            VMP_LIT(p, ",\"tx_type\":");
            p = putUint(p, event.aux & 0x7fu);
            VMP_LIT(p, ",\"aborted\":");
            p = putBool(p, (event.aux & 0x80u) != 0);
            VMP_LIT(p, ",\"master\":");
            p = putUint(p, event.master);
            if (event.kind == EventKind::BusTx)
                VMP_LIT(p, ",\"queue_delay_ns\":");
            else
                VMP_LIT(p, ",\"bus_time_ns\":");
            p = putUint(p, event.arg1);
            break;
          case EventKind::Miss:
            VMP_LIT(p, "\"addr\":");
            p = putUint(p, event.addr);
            VMP_LIT(p, ",\"dirty\":");
            p = putBool(p, (event.aux & 1u) != 0);
            VMP_LIT(p, ",\"kind\":\"");
            p = putName(p, missKindName(static_cast<MissKind>(
                               (event.aux & ~kNestedMissBit) >> 1)));
            VMP_LIT(p, "\",\"retries\":");
            p = putUint(p, event.arg1);
            break;
          case EventKind::Service:
            VMP_LIT(p, "\"words\":");
            p = putUint(p, event.arg1);
            break;
          case EventKind::IbcFetch:
            VMP_LIT(p, "\"addr\":");
            p = putUint(p, event.addr);
            VMP_LIT(p, ",\"exclusive\":");
            p = putBool(p, (event.aux & 1u) != 0);
            VMP_LIT(p, ",\"upgrade\":");
            p = putBool(p, (event.aux & 2u) != 0);
            break;
          case EventKind::Recovery:
            VMP_LIT(p, "\"dead_board\":");
            p = putUint(p, event.master);
            break;
          default:
            break;
        }
        VMP_LIT(p, "}}");
        return p;
    }
    if (event.kind == EventKind::FifoDepth) {
        VMP_LIT(p, "fifo_depth\",\"ph\":\"C\",\"pid\":0,\"tid\":");
        p = putUint(p, event.track);
        VMP_LIT(p, ",\"ts\":");
        p = putUsec(p, event.at);
        VMP_LIT(p, ",\"args\":{\"depth\":");
        p = putUint(p, event.arg0);
        VMP_LIT(p, "}}");
        return p;
    }
    p = putName(p, eventKindName(event.kind));
    VMP_LIT(p, "\",\"ph\":\"i\",\"pid\":0,\"tid\":");
    p = putUint(p, event.track);
    VMP_LIT(p, ",\"ts\":");
    p = putUsec(p, event.at);
    VMP_LIT(p, ",\"s\":\"t\",\"args\":{\"addr\":");
    p = putUint(p, event.addr);
    VMP_LIT(p, ",\"master\":");
    p = putUint(p, event.master);
    VMP_LIT(p, "}}");
    return p;
}

#undef VMP_LIT

Json
chromeTrackMetadata(std::uint16_t track, const std::string &name)
{
    Json meta = Json::object();
    meta["name"] = Json("thread_name");
    meta["ph"] = Json("M");
    meta["pid"] = Json(0);
    meta["tid"] = Json(std::uint64_t{track});
    Json args = Json::object();
    args["name"] = Json(name);
    meta["args"] = std::move(args);
    return meta;
}

void
writeChromeTrace(const EventTracer &tracer, std::ostream &os)
{
    os << kChromeTraceHeader;
    const char *sep = "\n";
    for (std::uint16_t t = 0;
         t < static_cast<std::uint16_t>(tracer.trackCount()); ++t) {
        os << sep << chromeTrackMetadata(t, tracer.trackName(t)).dump(0);
        sep = ",\n";
    }
    char record[kMaxRecordBytes];
    for (const TraceEvent &event : tracer.allEvents()) {
        os << sep;
        os.write(record, putChromeRecord(record, event) - record);
        sep = ",\n";
    }
    os << kChromeTraceFooter;
}

std::string
busUtilizationCsv(const EventTracer &tracer, Tick bin_ns)
{
    if (bin_ns == 0)
        bin_ns = 1;
    // Collect BusTx spans per track; remember which tracks carry any.
    struct Column
    {
        std::uint16_t track;
        std::vector<TraceEvent> spans;
    };
    std::vector<Column> columns;
    Tick end = 0;
    for (std::uint16_t t = 0;
         t < static_cast<std::uint16_t>(tracer.trackCount()); ++t) {
        Column col;
        col.track = t;
        for (const TraceEvent &event : tracer.events(t)) {
            if (event.kind != EventKind::BusTx)
                continue;
            col.spans.push_back(event);
            if (event.at + event.arg0 > end)
                end = event.at + event.arg0;
        }
        if (!col.spans.empty())
            columns.push_back(std::move(col));
    }
    std::ostringstream os;
    os << "t_us";
    for (const Column &col : columns)
        os << ',' << tracer.trackName(col.track);
    os << '\n';
    if (columns.empty())
        return os.str();
    const std::size_t bins =
        static_cast<std::size_t>((end + bin_ns - 1) / bin_ns);
    std::vector<std::vector<Tick>> busy(
        columns.size(), std::vector<Tick>(bins, 0));
    for (std::size_t c = 0; c < columns.size(); ++c) {
        for (const TraceEvent &event : columns[c].spans) {
            Tick lo = event.at;
            const Tick hi = event.at + event.arg0;
            while (lo < hi) {
                const std::size_t bin =
                    static_cast<std::size_t>(lo / bin_ns);
                const Tick bin_end = (bin + 1) * bin_ns;
                const Tick upto = hi < bin_end ? hi : bin_end;
                busy[c][bin] += upto - lo;
                lo = upto;
            }
        }
    }
    for (std::size_t bin = 0; bin < bins; ++bin) {
        os << Json::numberToString(usec(bin * bin_ns));
        for (std::size_t c = 0; c < columns.size(); ++c) {
            os << ','
               << Json::numberToString(
                      static_cast<double>(busy[c][bin]) /
                      static_cast<double>(bin_ns));
        }
        os << '\n';
    }
    return os.str();
}

std::string
fifoDepthCsv(const EventTracer &tracer)
{
    std::ostringstream os;
    os << "t_us,track,depth,dropped\n";
    for (const TraceEvent &event : tracer.allEvents()) {
        if (event.kind != EventKind::FifoDepth)
            continue;
        os << Json::numberToString(usec(event.at)) << ','
           << tracer.trackName(event.track) << ',' << event.arg0
           << ',' << unsigned{event.aux} << '\n';
    }
    return os.str();
}

std::string
metricsSnapshot(const EventTracer &tracer,
                const MissProfiler *profiler, const GaugeSet *gauges)
{
    std::ostringstream os;
    os << "obs snapshot: " << tracer.trackCount() << " tracks, "
       << tracer.recorded() << " events recorded, "
       << tracer.droppedOldest() << " overwritten (ring "
       << tracer.ringCapacity() << ")\n";
    std::array<std::uint64_t, kEventKinds> per_kind{};
    for (std::uint16_t t = 0;
         t < static_cast<std::uint16_t>(tracer.trackCount()); ++t) {
        const auto events = tracer.events(t);
        os << "  track " << t << " (" << tracer.trackName(t)
           << "): " << events.size() << " retained, "
           << tracer.droppedOn(t) << " overwritten\n";
        for (const TraceEvent &event : events)
            ++per_kind[static_cast<std::size_t>(event.kind)];
    }
    os << "  retained by kind:";
    for (std::size_t k = 0; k < kEventKinds; ++k) {
        if (per_kind[k] == 0)
            continue;
        os << ' ' << eventKindName(static_cast<EventKind>(k)) << '='
           << per_kind[k];
    }
    os << '\n';
    if (profiler != nullptr) {
        os << "  miss profile: " << profiler->misses()
           << " misses, " << profiler->phaseSumMismatches()
           << " phase-sum mismatches (worst "
           << profiler->worstMismatchNs() << " ns)\n";
        for (std::size_t k = 0; k < kMissKinds; ++k) {
            for (int dirty = 0; dirty < 2; ++dirty) {
                const MissBreakdown &cls = profiler->breakdown(
                    static_cast<MissKind>(k), dirty != 0);
                if (cls.count == 0)
                    continue;
                char line[256];
                std::snprintf(
                    line, sizeof line,
                    "    %-10s %-5s n=%-8llu elapsed=%8.2fus "
                    "trap=%.2f lookup=%.2f wb=%.2f copy=%.2f "
                    "wait=%.2f\n",
                    missKindName(static_cast<MissKind>(k)),
                    dirty != 0 ? "dirty" : "clean",
                    static_cast<unsigned long long>(cls.count),
                    cls.meanElapsedUs(),
                    cls.meanPhaseUs(MissPhase::Trap),
                    cls.meanPhaseUs(MissPhase::TableLookup),
                    cls.meanPhaseUs(MissPhase::VictimWriteback),
                    cls.meanPhaseUs(MissPhase::BlockCopy),
                    cls.meanPhaseUs(MissPhase::ConsistencyWait));
                os << line;
            }
        }
    }
    if (gauges != nullptr && !gauges->empty()) {
        os << "  gauges:\n";
        for (const GaugeGroup &group : gauges->groups()) {
            for (const Gauge &gauge : group.gauges) {
                os << "    " << group.name << '.' << gauge.name
                   << " = " << Json::numberToString(gauge.value)
                   << '\n';
            }
        }
    }
    return os.str();
}

} // namespace vmp::obs
