/**
 * @file
 * Telemetry subsystem tests: streaming-sink chunked writes parse to
 * the identical event list as the post-hoc writeChromeTrace exporter
 * (flat + hier, seeded), truncation recovery, bounded-staging drop
 * accounting, live inspection snapshots (round-tripped through the
 * repo's own JSON parser), replay ownership reconstruction, and the
 * gauge wiring that surfaces budget/recovery state in
 * metricsSnapshot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hier_system.hh"
#include "core/system.hh"
#include "fault/injector.hh"
#include "obs/event_tracer.hh"
#include "obs/export.hh"
#include "obs/gauges.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "telemetry/inspect.hh"
#include "telemetry/replay.hh"
#include "telemetry/streaming_sink.hh"
#include "telemetry/system_gauges.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace vmp
{
namespace
{

std::vector<std::unique_ptr<trace::SyntheticGen>>
makeSources(std::uint32_t cpus, std::uint64_t refs,
            std::uint64_t seed_base)
{
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    for (std::uint32_t i = 0; i < cpus; ++i) {
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = refs;
        workload.seed = seed_base + i;
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
    }
    return gens;
}

std::vector<trace::RefSource *>
rawSources(std::vector<std::unique_ptr<trace::SyntheticGen>> &gens)
{
    std::vector<trace::RefSource *> raw;
    for (auto &g : gens)
        raw.push_back(g.get());
    return raw;
}

core::VmpConfig
smallConfig(std::uint32_t cpus)
{
    core::VmpConfig cfg;
    cfg.processors = cpus;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    return cfg;
}

/** Sorted compact record dumps for order-insensitive comparison. */
std::vector<std::string>
sortedRecords(const Json &doc)
{
    std::vector<std::string> out;
    for (const Json &record : doc.get("traceEvents").items())
        out.push_back(record.dump(0));
    std::sort(out.begin(), out.end());
    return out;
}

/** writeChromeTrace's output for @p tracer, parsed. */
Json
postHocDoc(const obs::EventTracer &tracer)
{
    std::ostringstream os;
    obs::writeChromeTrace(tracer, os);
    return Json::parse(os.str());
}

obs::TraceEvent
makeEvent(Tick at, obs::EventKind kind, std::uint16_t track,
          std::uint64_t arg0 = 0, std::uint8_t aux = 0)
{
    obs::TraceEvent event;
    event.at = at;
    event.kind = kind;
    event.track = track;
    event.arg0 = arg0;
    event.aux = aux;
    return event;
}

// ------------------------------------- streamed-vs-post-hoc (chunked)

TEST(StreamingSink, ChunkedStreamEqualsPostHocExportFlat)
{
    core::VmpSystem system(smallConfig(2));
    // Big rings so the post-hoc exporter retains everything too.
    obs::EventTracer &tracer =
        system.enableTracing(obs::TraceConfig{1 << 18});

    std::ostringstream stream;
    telemetry::StreamConfig cfg;
    cfg.flushThreshold = 64; // many small incremental writes
    telemetry::StreamingSink sink(stream, cfg);
    sink.attach(tracer, system.events());

    auto gens = makeSources(2, 8'000, 7);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    sink.close();

    ASSERT_EQ(tracer.droppedOldest(), 0u);
    EXPECT_EQ(sink.droppedTotal(), 0u);
    EXPECT_EQ(sink.eventsStreamed(), tracer.recorded());
    EXPECT_GT(sink.flushes(), 2u);

    const Json streamed = Json::parse(stream.str());
    EXPECT_EQ(streamed.get("displayTimeUnit").asString(), "ns");
    EXPECT_EQ(sortedRecords(streamed),
              sortedRecords(postHocDoc(tracer)));
}

TEST(StreamingSink, ChunkedStreamEqualsPostHocExportHier)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::HierVmpSystem system(cfg);
    obs::EventTracer &tracer =
        system.enableTracing(obs::TraceConfig{1 << 18});

    std::ostringstream stream;
    telemetry::StreamConfig stream_cfg;
    stream_cfg.flushThreshold = 128;
    telemetry::StreamingSink sink(stream, stream_cfg);
    sink.attach(tracer, system.events());

    auto gens = makeSources(4, 4'000, 23);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    sink.close();

    ASSERT_EQ(tracer.droppedOldest(), 0u);
    EXPECT_EQ(sink.droppedTotal(), 0u);
    const Json streamed = Json::parse(stream.str());
    EXPECT_EQ(sortedRecords(streamed),
              sortedRecords(postHocDoc(tracer)));
}

TEST(StreamingSink, AttachTwiceIsFatal)
{
    obs::EventTracer tracer;
    tracer.registerTrack("t");
    EventQueue events;
    std::ostringstream stream;
    telemetry::StreamingSink sink(stream);
    sink.attach(tracer, events);
    EXPECT_THROW(sink.attach(tracer, events), PanicError);
}

// --------------------------------------------- truncation recovery

TEST(StreamingSink, TruncatedStreamRecoversAtEveryCut)
{
    obs::EventTracer tracer;
    const auto track = tracer.registerTrack("bus");
    EventQueue events;
    std::ostringstream stream;
    telemetry::StreamConfig cfg;
    cfg.flushThreshold = 2;
    telemetry::StreamingSink sink(stream, cfg);
    sink.attach(tracer, events);
    for (Tick at = 1; at <= 9; ++at) {
        tracer.record(
            makeEvent(at * 100, obs::EventKind::BusTx, track, 40));
    }
    sink.close();
    const std::string full = stream.str();

    // A complete document passes through recovery unchanged.
    EXPECT_EQ(telemetry::StreamingSink::recoverTruncated(full), full);
    const std::size_t total_records =
        Json::parse(full).get("traceEvents").size();

    // Any cut point must recover to a parseable prefix document.
    for (std::size_t cut = 1; cut < full.size(); ++cut) {
        const std::string repaired =
            telemetry::StreamingSink::recoverTruncated(
                full.substr(0, cut));
        const Json doc = Json::parse(repaired);
        EXPECT_LE(doc.get("traceEvents").size(), total_records);
    }
}

// ------------------------------------------------- drop accounting

TEST(StreamingSink, BoundedStagingDropsAndCounts)
{
    obs::EventTracer tracer;
    const auto a = tracer.registerTrack("a");
    const auto b = tracer.registerTrack("b");
    EventQueue events;
    std::ostringstream stream;
    telemetry::StreamConfig cfg;
    cfg.stagingPerTrack = 4;
    cfg.autoFlush = false; // consumer "falls behind"
    telemetry::StreamingSink sink(stream, cfg);
    sink.attach(tracer, events);

    for (Tick at = 1; at <= 10; ++at)
        tracer.record(makeEvent(at, obs::EventKind::BusTx, a, 5));
    tracer.record(makeEvent(11, obs::EventKind::BusTx, b, 5));

    EXPECT_EQ(sink.droppedOn(a), 6u);
    EXPECT_EQ(sink.droppedOn(b), 0u);
    EXPECT_EQ(sink.droppedTotal(), 6u);

    sink.close();
    EXPECT_EQ(sink.eventsStreamed(), 5u); // 4 on a + 1 on b
    // The document is still valid; only the dropped events are gone.
    const Json doc = Json::parse(stream.str());
    EXPECT_EQ(doc.get("traceEvents").size(), 7u); // 2 metadata + 5

    // Counters ride into a stat group.
    StatGroup group("obs");
    sink.registerStats(group);
    std::ostringstream os;
    group.dump(os);
    EXPECT_NE(os.str().find("stream_dropped"), std::string::npos);

    // Flushing drains staging, making room again.
    tracer.record(makeEvent(12, obs::EventKind::BusTx, a, 5));
    EXPECT_EQ(sink.droppedTotal(), 6u); // closed: ignored, not dropped
}

// ----------------------------------- per-track ring overwrite stats

TEST(EventTracer, PerTrackOverwriteCountersSurfaceInStats)
{
    obs::EventTracer tracer(4);
    const auto bus = tracer.registerTrack("bus");
    tracer.registerTrack("c0.bus");
    for (Tick at = 1; at <= 9; ++at)
        tracer.record(makeEvent(at, obs::EventKind::BusTx, bus));

    StatGroup group("obs");
    tracer.registerStats(group);
    std::ostringstream os;
    group.dump(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("overwritten_bus"), std::string::npos);
    // '.' in track names is sanitized for the flat stat namespace.
    EXPECT_NE(dump.find("overwritten_c0_bus"), std::string::npos);
    EXPECT_EQ(tracer.droppedOn(bus), 5u);
}

// ------------------------------------------------- live inspection

TEST(Inspect, FlatSnapshotRoundTripsAndMatchesCounters)
{
    core::VmpSystem system(smallConfig(2));
    system.enableTracing();
    system.enableRecovery();
    auto gens = makeSources(2, 6'000, 31);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);

    const Json snapshot = telemetry::inspectSystem(system);
    // Round-trip through the repo's own parser.
    const Json reparsed = Json::parse(snapshot.dump(2));
    EXPECT_EQ(reparsed, snapshot);

    EXPECT_EQ(snapshot.get("t_ns").asUint(), system.events().now());
    const Json &boards = snapshot.get("domains").at(0).get("boards");
    ASSERT_EQ(boards.size(), 2u);
    std::uint64_t misses = 0;
    for (std::size_t b = 0; b < boards.size(); ++b) {
        const Json &board = boards.at(b);
        EXPECT_GT(board.get("cache").get("valid_slots").asUint(), 0u);
        EXPECT_EQ(board.get("fifo").get("depth").asUint(), 0u);
        misses += board.get("controller").get("misses").asUint();
    }
    EXPECT_EQ(misses, result.totalMisses);
    EXPECT_TRUE(snapshot.get("domains").at(0).contains("recovery"));
    EXPECT_TRUE(snapshot.contains("trace"));
}

TEST(Inspect, HierSnapshotCoversClusters)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::HierVmpSystem system(cfg);
    auto gens = makeSources(4, 3'000, 41);
    auto raw = rawSources(gens);
    system.runTraces(raw);

    const Json snapshot = telemetry::inspectSystem(system);
    EXPECT_EQ(Json::parse(snapshot.dump(2)), snapshot);
    // domains[0] is the global bus; cluster k is domains[k + 1].
    const Json &domains = snapshot.get("domains");
    ASSERT_EQ(domains.size() - 1, 2u);
    for (std::size_t k = 0; k < domains.size() - 1; ++k) {
        const Json &cluster = domains.at(k + 1);
        EXPECT_EQ(cluster.get("boards").size(), 2u);
        EXPECT_TRUE(cluster.get("ibc").contains("pending_words"));
    }
    EXPECT_FALSE(snapshot.contains("budget"));
}

TEST(Inspect, FifoContentsListQueuedWords)
{
    // A wedged consumer leaves words queued: drive the monitor FIFO
    // directly through a mini system where board 1 never services.
    core::VmpSystem system(smallConfig(2));
    auto gens = makeSources(2, 2'000, 13);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    const Json fifo =
        telemetry::inspectFifo(system.board(0).monitor.fifo());
    EXPECT_TRUE(fifo.contains("depth"));
    EXPECT_TRUE(fifo.contains("capacity"));
    EXPECT_TRUE(fifo.contains("words"));
    EXPECT_EQ(fifo.get("depth").asUint(),
              fifo.get("words").size());
}

// ------------------------------------------------------------ gauges

TEST(Gauges, GaugeSetKeepsInsertionOrderAndSerializes)
{
    obs::GaugeSet set;
    set.add("bus", "utilization", 0.25);
    set.add("cpu0", "fifo_depth", 3.0);
    set.add("bus", "fenced_drops", 0.0);
    ASSERT_EQ(set.groups().size(), 2u);
    EXPECT_EQ(set.groups()[0].name, "bus");
    EXPECT_EQ(set.groups()[0].gauges.size(), 2u);
    const Json doc = set.toJson();
    EXPECT_EQ(doc.get("bus").get("utilization").asNumber(), 0.25);
    EXPECT_EQ(doc.get("cpu0").get("fifo_depth").asNumber(), 3.0);
}

TEST(Gauges, CollectGaugesCarriesRecoveryAndMetricsSnapshotRenders)
{
    core::VmpSystem system(smallConfig(2));
    system.enableTracing();
    system.enableRecovery();
    auto gens = makeSources(2, 4'000, 17);
    auto raw = rawSources(gens);
    system.runTraces(raw);

    const obs::GaugeSet gauges = telemetry::collectGauges(system);
    const Json doc = gauges.toJson();
    EXPECT_TRUE(doc.contains("bus"));
    EXPECT_TRUE(doc.contains("cpu0"));
    EXPECT_TRUE(doc.contains("recover"));

    const std::string rendered = obs::metricsSnapshot(
        *system.tracer(), system.missProfiler(), &gauges);
    EXPECT_NE(rendered.find("bus.utilization"), std::string::npos);
    EXPECT_NE(rendered.find("recover.boards_dead"),
              std::string::npos);
}

TEST(Gauges, HierCollectCarriesClusterGroups)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::HierVmpSystem system(cfg);
    auto gens = makeSources(4, 3'000, 19);
    auto raw = rawSources(gens);
    system.runTraces(raw);

    const Json doc = telemetry::collectGauges(system).toJson();
    EXPECT_TRUE(doc.contains("global_bus"));
    EXPECT_TRUE(doc.contains("c0.bus"));
    EXPECT_TRUE(doc.contains("c1.ibc"));
    EXPECT_FALSE(doc.contains("budget"));
}

TEST(Gauges, HierBusGaugesCarryFencedDrops)
{
    // A wedged inter-bus board is fenced by the global recovery
    // manager, whose bus then drops the quarantined board's requests.
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    cfg.deadOwnerTimeoutNs = msec(1);
    core::HierVmpSystem system(cfg);
    fault::FaultSchedule s;
    s.wedgeInterBus(1, msec(1)).clearAt(msec(3));
    system.enableFaultInjection(s);
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 32;
    rc.detector.deadlineNs = 20'000;
    rc.detector.unfenceCheckNs = 500'000;
    rc.detector.unfenceChecks = 8;
    system.enableRecovery(rc);
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    for (std::uint32_t i = 0; i < 4; ++i) {
        auto workload = trace::workloadConfig("atum3");
        workload.totalRefs = 20'000;
        workload.seed = 17'000 + i;
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
    }
    auto raw = rawSources(gens);
    system.runTraces(raw);

    const std::uint64_t drops = system.root().bus.fencedDrops().value();
    ASSERT_GT(drops, 0u);
    const Json gauges = telemetry::collectGauges(system).toJson();
    EXPECT_EQ(gauges.get("global_bus").get("fenced_drops").asUint(),
              drops);
    const Json snapshot = telemetry::inspectSystem(system);
    const Json &global_bus = snapshot.get("domains").at(0).get("bus");
    EXPECT_EQ(global_bus.get("fenced_drops").asUint(), drops);
    EXPECT_TRUE(global_bus.contains("busy"));
    for (std::size_t k = 0; k < system.config().clusters; ++k) {
        const std::uint64_t local =
            system.cluster(k).bus.fencedDrops().value();
        const std::string group = "c" + std::to_string(k) + ".bus";
        EXPECT_EQ(gauges.get(group).get("fenced_drops").asUint(), local);
        const Json &bus = snapshot.get("domains").at(k + 1).get("bus");
        EXPECT_EQ(bus.get("fenced_drops").asUint(), local);
        EXPECT_TRUE(bus.contains("busy"));
    }
}

TEST(Gauges, GroupNamesAreStatGroupNames)
{
    // A gauge group and the stat group of the same component share one
    // name, on every domain of either machine.
    const auto expect_stat_groups = [](const core::Machine &machine) {
        const Json stats = machine.statsJson();
        const obs::GaugeSet gauges = telemetry::collectGauges(machine);
        for (const obs::GaugeGroup &group : gauges.groups())
            EXPECT_TRUE(stats.contains(group.name)) << group.name;
    };

    core::VmpSystem flat(smallConfig(2));
    flat.enableTracing();
    flat.enableCoherenceCheckers();
    flat.enableRecovery();
    auto flat_gens = makeSources(2, 2'000, 23);
    auto flat_raw = rawSources(flat_gens);
    flat.runTraces(flat_raw);
    expect_stat_groups(flat);

    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::HierVmpSystem hier(cfg);
    hier.enableTracing();
    hier.enableCoherenceCheckers();
    hier.enableRecovery();
    auto hier_gens = makeSources(4, 2'000, 23);
    auto hier_raw = rawSources(hier_gens);
    hier.runTraces(hier_raw);
    expect_stat_groups(hier);
}

TEST(Gauges, SinkSamplesGaugesOnFlushIntoJsonl)
{
    core::VmpSystem system(smallConfig(2));
    obs::EventTracer &tracer = system.enableTracing();
    std::ostringstream stream;
    std::ostringstream gauge_stream;
    telemetry::StreamConfig cfg;
    cfg.flushThreshold = 256;
    telemetry::StreamingSink sink(stream, cfg);
    sink.setGaugeStream(&gauge_stream);
    telemetry::attachSystemGauges(sink, system);
    sink.attach(tracer, system.events());

    auto gens = makeSources(2, 4'000, 29);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    sink.close();

    std::istringstream lines(gauge_stream.str());
    std::string line;
    std::size_t samples = 0;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        ++samples;
        const Json sample = Json::parse(line);
        EXPECT_TRUE(sample.contains("t_us"));
        EXPECT_TRUE(sample.get("gauges").contains("sink"));
        EXPECT_TRUE(sample.get("gauges").contains("bus"));
        EXPECT_TRUE(sample.get("gauges").contains("cpu0"));
    }
    EXPECT_GT(samples, 0u);
    // Miss-phase EWMAs fold into the last sample once misses ran.
    const std::string text = gauge_stream.str();
    EXPECT_NE(text.find("miss_ewma"), std::string::npos);
}

// ------------------------------------------------------------ replay

/** Build a synthetic Chrome-trace doc from TraceEvents, using the
 *  production exporter so the vocabulary always matches. */
std::string
syntheticTrace(const std::vector<obs::TraceEvent> &events)
{
    obs::EventTracer tracer;
    tracer.registerTrack("bus");
    tracer.registerTrack("c1.bus");
    for (const obs::TraceEvent &event : events)
        tracer.record(event);
    std::ostringstream os;
    obs::writeChromeTrace(tracer, os);
    return os.str();
}

obs::TraceEvent
busTx(Tick start, Tick dur, std::uint64_t addr, std::uint32_t master,
      mem::TxType tx, bool aborted = false, std::uint16_t track = 0)
{
    obs::TraceEvent event;
    event.at = start;
    event.kind = obs::EventKind::BusTx;
    event.track = track;
    event.addr = addr;
    event.master = master;
    event.arg0 = dur;
    event.aux = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(tx) | (aborted ? 0x80 : 0));
    return event;
}

TEST(Replay, OwnerFollowsAcquireReleaseChain)
{
    const std::uint64_t frame = 0x4000;
    std::vector<obs::TraceEvent> events;
    // Aborted attempt by board 1, then board 0 acquires, releases,
    // board 1 acquires.
    events.push_back(busTx(100, 50, frame, 1,
                           mem::TxType::ReadPrivate, true));
    events.push_back(
        busTx(200, 50, frame, 0, mem::TxType::ReadPrivate));
    events.push_back(
        busTx(400, 50, frame, 0, mem::TxType::WriteBack));
    events.push_back(
        busTx(500, 50, frame, 1, mem::TxType::AssertOwnership));
    // Unrelated traffic on another frame.
    events.push_back(
        busTx(300, 50, 0x8000, 1, mem::TxType::ReadShared));

    const auto session =
        telemetry::ReplaySession::fromText(syntheticTrace(events));
    EXPECT_EQ(session.rawRecords(), 7u);

    // Before anything completed: unowned.
    EXPECT_FALSE(session.ownerAt(frame, 100).owned);
    // Aborted acquire does not transfer ownership.
    EXPECT_FALSE(session.ownerAt(frame, 160).owned);
    // After board 0's ReadPrivate completes at 250.
    const auto at300 = session.ownerAt(frame, 300);
    EXPECT_TRUE(at300.owned);
    EXPECT_EQ(at300.board, 0u);
    EXPECT_EQ(at300.sinceNs, 250u);
    // After the write-back completes: memory authoritative.
    EXPECT_FALSE(session.ownerAt(frame, 460).owned);
    // After board 1's upgrade completes at 550.
    const auto at600 = session.ownerAt(frame, 600);
    EXPECT_TRUE(at600.owned);
    EXPECT_EQ(at600.board, 1u);
    EXPECT_EQ(at600.chain.size(), 3u);
}

TEST(Replay, ReclaimInstantClearsOwnership)
{
    const std::uint64_t frame = 0x2000;
    std::vector<obs::TraceEvent> events;
    events.push_back(
        busTx(100, 50, frame, 2, mem::TxType::ReadPrivate));
    obs::TraceEvent reclaim;
    reclaim.at = 900;
    reclaim.kind = obs::EventKind::Reclaim;
    reclaim.track = 0;
    reclaim.addr = frame;
    reclaim.master = 0;
    events.push_back(reclaim);

    const auto session =
        telemetry::ReplaySession::fromText(syntheticTrace(events));
    EXPECT_TRUE(session.ownerAt(frame, 500).owned);
    const auto after = session.ownerAt(frame, 1000);
    EXPECT_FALSE(after.owned);
    EXPECT_EQ(after.chain.size(), 2u);
}

TEST(Replay, FiltersSelectFrameBoardTrackAndWindow)
{
    std::vector<obs::TraceEvent> events;
    events.push_back(
        busTx(100, 50, 0x1000, 0, mem::TxType::ReadPrivate));
    events.push_back(busTx(200, 50, 0x2000, 1,
                           mem::TxType::AssertOwnership));
    events.push_back(busTx(300, 50, 0x1000, 1,
                           mem::TxType::WriteBack, false,
                           /*track=*/1));
    const auto session =
        telemetry::ReplaySession::fromText(syntheticTrace(events));
    ASSERT_EQ(session.events().size(), 3u);

    telemetry::ReplayFilter by_frame;
    by_frame.frame = 0x1000;
    EXPECT_EQ(session.history(by_frame).size(), 2u);

    telemetry::ReplayFilter by_board;
    by_board.board = 1;
    EXPECT_EQ(session.history(by_board).size(), 2u);

    telemetry::ReplayFilter by_track;
    by_track.track = "c1.bus";
    const auto on_track = session.history(by_track);
    ASSERT_EQ(on_track.size(), 1u);
    EXPECT_EQ(on_track[0].addr, 0x1000u);

    telemetry::ReplayFilter window;
    window.fromNs = 200;
    window.toNs = 260;
    const auto in_window = session.history(window);
    ASSERT_EQ(in_window.size(), 1u);
    EXPECT_EQ(in_window[0].addr, 0x2000u);

    // Track scoping in ownerAt: on track "bus" the frame is still
    // owned (the release happened on the other track's domain).
    EXPECT_TRUE(session.ownerAt(0x1000, 1000, "bus").owned);
    EXPECT_FALSE(session.ownerAt(0x1000, 1000).owned);
}

TEST(Replay, LoadsTruncatedStreamViaRecovery)
{
    core::VmpSystem system(smallConfig(2));
    obs::EventTracer &tracer =
        system.enableTracing(obs::TraceConfig{1 << 18});
    std::ostringstream stream;
    telemetry::StreamConfig cfg;
    cfg.flushThreshold = 64;
    telemetry::StreamingSink sink(stream, cfg);
    sink.attach(tracer, system.events());
    auto gens = makeSources(2, 5'000, 37);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    sink.close();

    const std::string full = stream.str();
    const auto whole = telemetry::ReplaySession::fromText(full);
    const auto cut = telemetry::ReplaySession::fromText(
        full.substr(0, full.size() / 2));
    EXPECT_GT(whole.events().size(), 0u);
    EXPECT_GT(cut.events().size(), 0u);
    EXPECT_LT(cut.events().size(), whole.events().size());
    EXPECT_EQ(whole.trackNames()[0], "bus");
}

} // namespace
} // namespace vmp
