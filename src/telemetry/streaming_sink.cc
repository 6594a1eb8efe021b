/**
 * @file
 * StreamingSink implementation. Hot path (onEvent) is a bounds check
 * plus a push_back into reserved staging storage; all serialization
 * and I/O happens at flush boundaries.
 */

#include "telemetry/streaming_sink.hh"

#include <ostream>

#include "obs/export.hh"
#include "obs/miss_profiler.hh"
#include "sim/logging.hh"

namespace vmp::telemetry
{

namespace
{

/** EWMA smoothing factor for the per-phase miss-time gauges. */
constexpr double kEwmaAlpha = 0.125;

} // namespace

StreamingSink::StreamingSink(std::ostream &events_out,
                             StreamConfig config)
    : out_(events_out), cfg_(config),
      phaseEwmaNs_(obs::kMissPhases, -1.0)
{
    if (cfg_.stagingPerTrack == 0)
        cfg_.stagingPerTrack = 1;
    staging_.reserve(cfg_.flushThreshold + 64);
    wbuf_.reserve(cfg_.flushThreshold * 160 + 256);
}

void
StreamingSink::addGaugeProvider(GaugeProvider provider)
{
    providers_.push_back(std::move(provider));
}

void
StreamingSink::attach(obs::EventTracer &tracer,
                      const EventQueue &events)
{
    if (tracer_ != nullptr)
        panic("StreamingSink: attached twice");
    tracer_ = &tracer;
    events_ = &events;
    out_ << obs::kChromeTraceHeader;
    for (std::uint16_t t = 0;
         t < static_cast<std::uint16_t>(tracer.trackCount()); ++t)
        announceTrack(t);
    drainBuffer();
    out_.flush();
    tracer.addSink(
        [this](const obs::TraceEvent &event) { onEvent(event); });
}

void
StreamingSink::onEvent(const obs::TraceEvent &event)
{
    if (closed_)
        return;
    const std::uint8_t phase = event.aux & ~obs::kNestedMissBit;
    if (event.kind == obs::EventKind::MissPhase &&
        phase < obs::kMissPhases) {
        double &ewma = phaseEwmaNs_[phase];
        const double sample = static_cast<double>(event.arg0);
        ewma = ewma < 0.0 ? sample
                          : kEwmaAlpha * sample +
                                (1.0 - kEwmaAlpha) * ewma;
    }
    if (event.track >= stagedPerTrack_.size()) {
        stagedPerTrack_.resize(event.track + 1, 0);
        droppedPerTrack_.resize(event.track + 1, 0);
    }
    if (stagedPerTrack_[event.track] >= cfg_.stagingPerTrack) {
        // Consumer fell behind: bound the buffer, count the loss.
        ++droppedPerTrack_[event.track];
        ++dropped_;
        return;
    }
    staging_.push_back(event);
    ++stagedPerTrack_[event.track];
    if (cfg_.autoFlush && staging_.size() >= cfg_.flushThreshold)
        flush();
}

void
StreamingSink::writeEvent(const obs::TraceEvent &event)
{
    char buf[obs::kMaxRecordBytes + 2];
    char *p = buf;
    if (wroteFirst_)
        *p++ = ',';
    *p++ = '\n';
    p = obs::putChromeRecord(p, event);
    wbuf_.append(buf, static_cast<std::size_t>(p - buf));
    wroteFirst_ = true;
}

void
StreamingSink::announceTrack(std::uint16_t track)
{
    if (track >= announced_.size())
        announced_.resize(track + 1, false);
    if (announced_[track])
        return;
    // Once per track: the Json slow path is fine here, and track
    // names are user strings that need real escaping.
    wbuf_.append(wroteFirst_ ? ",\n" : "\n", wroteFirst_ ? 2 : 1);
    wbuf_ += obs::chromeTrackMetadata(track,
                                      tracer_->trackName(track))
                 .dump(0);
    wroteFirst_ = true;
    announced_[track] = true;
}

void
StreamingSink::drainBuffer()
{
    if (wbuf_.empty())
        return;
    out_.write(wbuf_.data(),
               static_cast<std::streamsize>(wbuf_.size()));
    wbuf_.clear();
}

void
StreamingSink::flush()
{
    for (const obs::TraceEvent &event : staging_) {
        if (event.track >= announced_.size() ||
            !announced_[event.track])
            announceTrack(event.track);
        writeEvent(event);
        ++streamed_;
    }
    staging_.clear();
    stagedPerTrack_.assign(stagedPerTrack_.size(), 0);
    drainBuffer();
    out_.flush();
    ++flushes_;
    if (gauges_ != nullptr && events_ != nullptr) {
        Json line = Json::object();
        line["t_us"] =
            Json(static_cast<double>(events_->now()) / 1000.0);
        line["gauges"] = sampleGauges().toJson();
        *gauges_ << line.dump(0) << '\n';
        gauges_->flush();
        ++gaugeSamples_;
    }
}

void
StreamingSink::close()
{
    if (closed_)
        return;
    flush();
    if (tracer_ != nullptr) {
        for (std::uint16_t t = 0;
             t < static_cast<std::uint16_t>(tracer_->trackCount());
             ++t)
            announceTrack(t);
    }
    drainBuffer();
    out_ << obs::kChromeTraceFooter;
    out_.flush();
    closed_ = true;
}

obs::GaugeSet
StreamingSink::sampleGauges() const
{
    obs::GaugeSet set;
    set.add("sink", "events_streamed",
            static_cast<double>(streamed_.value()));
    set.add("sink", "events_staged",
            static_cast<double>(staging_.size()));
    set.add("sink", "events_dropped",
            static_cast<double>(dropped_.value()));
    set.add("sink", "flushes",
            static_cast<double>(flushes_.value()));
    for (std::size_t p = 0; p < phaseEwmaNs_.size(); ++p) {
        if (phaseEwmaNs_[p] < 0.0)
            continue;
        set.add("miss_ewma",
                std::string(obs::missPhaseName(
                    static_cast<obs::MissPhase>(p))) +
                    "_us",
                phaseEwmaNs_[p] / 1000.0);
    }
    for (const GaugeProvider &provider : providers_)
        provider(set);
    return set;
}

std::uint64_t
StreamingSink::droppedOn(std::uint16_t track) const
{
    return track < droppedPerTrack_.size() ? droppedPerTrack_[track]
                                           : 0;
}

void
StreamingSink::registerStats(StatGroup &group) const
{
    group.addCounter("stream_events", "events streamed to the sink",
                     streamed_);
    group.addCounter("stream_dropped",
                     "events dropped by sink backpressure", dropped_);
    group.addCounter("stream_flushes", "sink flush batches", flushes_);
    group.addCounter("stream_gauge_samples",
                     "gauge snapshots emitted", gaugeSamples_);
}

namespace
{

/** True when @p line is one complete JSON object (brace-balanced
 *  outside strings, ending exactly at depth zero). */
bool
completeObject(const std::string &line)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    bool opened = false;
    for (const char c : line) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{':
          case '[':
            ++depth;
            opened = true;
            break;
          case '}':
          case ']':
            if (--depth < 0)
                return false;
            if (depth == 0 && c == ']')
                return false;
            break;
          default: break;
        }
    }
    return opened && depth == 0 && !in_string;
}

} // namespace

std::string
StreamingSink::recoverTruncated(std::string text)
{
    // Already a closed document (a closed stream or a writeChromeTrace
    // file)? Then it passes through unchanged.
    std::size_t end = text.find_last_not_of(" \t\r\n");
    if (end != std::string::npos && text[end] == '}' &&
        completeObject(text.substr(0, end + 1)))
        return text;
    // Cut inside the header (before the first record separator):
    // nothing recoverable was written — canonical empty document.
    if (text.find('\n') == std::string::npos)
        return std::string(obs::kChromeTraceHeader) +
               obs::kChromeTraceFooter;
    // Trim a partial trailing line: keep the last '\n'-terminated
    // prefix, then keep the final line only if it is one complete
    // record.
    const std::size_t nl = text.find_last_of('\n');
    if (nl != std::string::npos) {
        std::string tail = text.substr(nl + 1);
        // A record line may carry the *next* record's separator; a
        // flush boundary leaves no trailing comma.
        if (!completeObject(tail))
            text.erase(nl);
    }
    // Strip the separator left for a record that never arrived.
    end = text.find_last_not_of(" \t\r\n");
    if (end == std::string::npos)
        return text;
    if (text[end] == ',')
        text.erase(end);
    else
        text.erase(end + 1);
    text += obs::kChromeTraceFooter;
    return text;
}

} // namespace vmp::telemetry
