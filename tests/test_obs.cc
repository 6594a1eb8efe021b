/**
 * @file
 * Observability subsystem tests: EventTracer ring semantics, the
 * MissProfiler fold, Chrome-trace/CSV export schema (with a JSON
 * round-trip through the repo's own parser), and the regression that
 * matters most — tracing is pure observation, so a traced run is
 * bit-identical to an untraced one on both the flat machine and the
 * two-level hierarchy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hier_system.hh"
#include "core/system.hh"
#include "obs/event_tracer.hh"
#include "obs/export.hh"
#include "obs/miss_profiler.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace vmp
{
namespace
{

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

// --------------------------------------------------- EventTracer core

TEST(EventTracer, TracksAreDenseAndNamed)
{
    obs::EventTracer tracer;
    EXPECT_EQ(tracer.registerTrack("bus"), 0u);
    EXPECT_EQ(tracer.registerTrack("cpu0"), 1u);
    EXPECT_EQ(tracer.trackCount(), 2u);
    EXPECT_EQ(tracer.trackName(0), "bus");
    EXPECT_EQ(tracer.trackName(1), "cpu0");
    EXPECT_THROW(tracer.registerTrack("bus"), PanicError);
}

TEST(EventTracer, RingCapacityRoundsUpToPowerOfTwo)
{
    obs::EventTracer tracer(100);
    EXPECT_EQ(tracer.ringCapacity(), 128u);
}

TEST(EventTracer, RingKeepsNewestAndUnwindsChronologically)
{
    obs::EventTracer tracer(4);
    const auto track = tracer.registerTrack("t");
    for (Tick at = 1; at <= 7; ++at) {
        tracer.record(
            makeEvent(at, obs::EventKind::BusTx, track, at * 10));
    }
    EXPECT_EQ(tracer.recorded(), 7u);
    EXPECT_EQ(tracer.droppedOldest(), 3u);
    EXPECT_EQ(tracer.droppedOn(track), 3u);
    const auto events = tracer.events(track);
    ASSERT_EQ(events.size(), 4u);
    // Oldest three were overwritten; remainder in tick order.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].at, static_cast<Tick>(4 + i));
}

TEST(EventTracer, AllEventsMergesTracksInTickOrder)
{
    obs::EventTracer tracer;
    const auto a = tracer.registerTrack("a");
    const auto b = tracer.registerTrack("b");
    tracer.record(makeEvent(30, obs::EventKind::Miss, b));
    tracer.record(makeEvent(10, obs::EventKind::Miss, a));
    tracer.record(makeEvent(20, obs::EventKind::Miss, b));
    const auto all = tracer.allEvents();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].at, 10u);
    EXPECT_EQ(all[1].at, 20u);
    EXPECT_EQ(all[2].at, 30u);
}

TEST(EventTracer, SinksSeeEveryEventEvenAfterWrap)
{
    obs::EventTracer tracer(2);
    const auto track = tracer.registerTrack("t");
    std::uint64_t seen = 0;
    tracer.addSink([&seen](const obs::TraceEvent &) { ++seen; });
    for (Tick at = 1; at <= 10; ++at)
        tracer.record(makeEvent(at, obs::EventKind::BusTx, track));
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(tracer.events(track).size(), 2u);
}

// --------------------------------------------------- MissProfiler fold

TEST(MissProfiler, FoldsPhasesIntoClasses)
{
    obs::MissProfiler profiler;
    // One clean full miss: trap 2000, lookup 8100, copy 6600.
    profiler.observe(makeEvent(
        0, obs::EventKind::MissPhase, 0, 2000,
        static_cast<std::uint8_t>(obs::MissPhase::Trap)));
    profiler.observe(makeEvent(
        2000, obs::EventKind::MissPhase, 0, 8100,
        static_cast<std::uint8_t>(obs::MissPhase::TableLookup)));
    profiler.observe(makeEvent(
        10100, obs::EventKind::MissPhase, 0, 6600,
        static_cast<std::uint8_t>(obs::MissPhase::BlockCopy)));
    profiler.observe(
        makeEvent(0, obs::EventKind::Miss, 0, 16700, /*aux=*/0));

    EXPECT_EQ(profiler.misses(), 1u);
    EXPECT_EQ(profiler.phaseSumMismatches(), 0u);
    const auto &clean = profiler.breakdown(obs::MissKind::Full, false);
    EXPECT_EQ(clean.count, 1u);
    EXPECT_DOUBLE_EQ(clean.meanElapsedUs(), 16.7);
    EXPECT_DOUBLE_EQ(clean.phaseSumUs(), 16.7);
    EXPECT_DOUBLE_EQ(clean.meanPhaseUs(obs::MissPhase::Trap), 2.0);
    EXPECT_EQ(profiler.breakdown(obs::MissKind::Full, true).count, 0u);
}

TEST(MissProfiler, CountsPhaseSumMismatches)
{
    obs::MissProfiler profiler;
    profiler.observe(makeEvent(
        0, obs::EventKind::MissPhase, 0, 1000,
        static_cast<std::uint8_t>(obs::MissPhase::Trap)));
    // Miss claims 1500 ns elapsed but phases only cover 1000.
    profiler.observe(
        makeEvent(0, obs::EventKind::Miss, 0, 1500, /*aux=*/0));
    EXPECT_EQ(profiler.phaseSumMismatches(), 1u);
    EXPECT_EQ(profiler.worstMismatchNs(), 500u);
}

TEST(MissProfiler, TracksKeepConcurrentMissesSeparate)
{
    obs::MissProfiler profiler;
    profiler.observe(makeEvent(
        0, obs::EventKind::MissPhase, /*track=*/1, 700,
        static_cast<std::uint8_t>(obs::MissPhase::Trap)));
    profiler.observe(makeEvent(
        0, obs::EventKind::MissPhase, /*track=*/2, 900,
        static_cast<std::uint8_t>(obs::MissPhase::Trap)));
    profiler.observe(makeEvent(0, obs::EventKind::Miss, 1, 700, 0));
    profiler.observe(makeEvent(0, obs::EventKind::Miss, 2, 900, 0));
    EXPECT_EQ(profiler.misses(), 2u);
    EXPECT_EQ(profiler.phaseSumMismatches(), 0u);
}

// ------------------------------------------------------- full systems

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

TEST(TracedSystem, NullTracerIsBitIdentical)
{
    auto run = [](bool traced) {
        core::VmpSystem system(smallConfig(2));
        if (traced)
            system.enableTracing();
        auto gens = makeSources(2, 8'000, 7);
        auto raw = rawSources(gens);
        return system.runTraces(raw).toString();
    };
    // Tracing is pure observation: no event scheduled, no RNG drawn —
    // the run summary (elapsed ticks included) is bit-identical.
    EXPECT_EQ(run(false), run(true));
}

TEST(TracedSystem, ProfilerFoldsEveryMissWithoutMismatch)
{
    core::VmpSystem system(smallConfig(2));
    system.enableTracing();
    auto gens = makeSources(2, 8'000, 11);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);

    ASSERT_NE(system.missProfiler(), nullptr);
    EXPECT_EQ(system.missProfiler()->misses(), result.totalMisses);
    EXPECT_EQ(system.missProfiler()->phaseSumMismatches(), 0u);
    EXPECT_GT(system.tracer()->recorded(), 0u);

    // The obs stat group rides into the registry.
    const Json stats = system.statsJson();
    EXPECT_TRUE(stats.contains("obs"));
    EXPECT_EQ(stats.get("obs").get("misses_profiled").asUint(),
              result.totalMisses);
    EXPECT_EQ(stats.get("obs").get("phase_sum_mismatches").asUint(),
              0u);
}

TEST(TracedSystem, EnableTwiceIsFatal)
{
    core::VmpSystem system(smallConfig(1));
    system.enableTracing();
    EXPECT_THROW(system.enableTracing(), FatalError);
}

TEST(TracedHierSystem, NullTracerIsBitIdenticalAndTracksNamed)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);

    auto run = [&cfg](bool traced) {
        core::HierVmpSystem system(cfg);
        if (traced)
            system.enableTracing();
        auto gens = makeSources(4, 4'000, 23);
        auto raw = rawSources(gens);
        return system.runTraces(raw).toString();
    };
    EXPECT_EQ(run(false), run(true));

    core::HierVmpSystem system(cfg);
    auto &tracer = system.enableTracing();
    // global bus + per cluster (bus, ibc) + per cpu + recover.
    EXPECT_EQ(tracer.trackCount(), 1u + 2u * 2u + 4u + 1u);
    EXPECT_EQ(tracer.trackName(0), "global_bus");
    auto gens = makeSources(4, 4'000, 23);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    EXPECT_GT(tracer.recorded(), 0u);
    EXPECT_EQ(system.missProfiler()->phaseSumMismatches(), 0u);
    EXPECT_TRUE(system.statsJson().contains("obs"));
}

// ------------------------------------------------------------ exports

/** A small traced run whose exports the schema tests inspect. */
class ExportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        system_ = std::make_unique<core::VmpSystem>(smallConfig(2));
        system_->enableTracing();
        auto gens = makeSources(2, 6'000, 31);
        auto raw = rawSources(gens);
        system_->runTraces(raw);
    }

    std::unique_ptr<core::VmpSystem> system_;
};

TEST_F(ExportTest, ChromeTraceSchemaAndRoundTrip)
{
    const obs::EventTracer &tracer = *system_->tracer();
    const Json doc = obs::chromeTraceJson(tracer);
    EXPECT_EQ(doc.get("displayTimeUnit").asString(), "ns");
    const Json &events = doc.get("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_GT(events.size(), tracer.trackCount());

    // One thread_name metadata record per track, first.
    std::size_t metadata = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &event = events.at(i);
        const std::string &ph = event.get("ph").asString();
        if (ph == "M") {
            ++metadata;
            EXPECT_EQ(event.get("name").asString(), "thread_name");
            continue;
        }
        ASSERT_TRUE(ph == "X" || ph == "i" || ph == "C") << ph;
        EXPECT_TRUE(event.contains("ts"));
        EXPECT_TRUE(event.contains("pid"));
        EXPECT_TRUE(event.contains("tid"));
        EXPECT_LT(event.get("tid").asUint(), tracer.trackCount());
        if (ph == "X") {
            EXPECT_TRUE(event.contains("dur"));
        }
    }
    EXPECT_EQ(metadata, tracer.trackCount());

    // Round-trip through the repo's own parser.
    const Json reparsed = Json::parse(doc.dump(2));
    EXPECT_EQ(reparsed, doc);

    // writeChromeTrace streams the same document.
    std::ostringstream os;
    obs::writeChromeTrace(tracer, os);
    EXPECT_EQ(Json::parse(os.str()), doc);
}

TEST_F(ExportTest, ChromeTraceEventsAreTimeOrdered)
{
    const Json doc = obs::chromeTraceJson(*system_->tracer());
    const Json &events = doc.get("traceEvents");
    double last_ts = -1.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Json &event = events.at(i);
        if (event.get("ph").asString() == "M")
            continue;
        const double ts = event.get("ts").asNumber();
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
    }
}

TEST_F(ExportTest, BusUtilizationCsvShape)
{
    const std::string csv =
        obs::busUtilizationCsv(*system_->tracer(), usec(100));
    std::istringstream is(csv);
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header.rfind("t_us,", 0), 0u);
    std::size_t rows = 0;
    std::string line;
    const std::size_t columns =
        1 + static_cast<std::size_t>(
            std::count(header.begin(), header.end(), ','));
    while (std::getline(is, line)) {
        ++rows;
        EXPECT_EQ(1 + static_cast<std::size_t>(
                          std::count(line.begin(), line.end(), ',')),
                  columns);
    }
    EXPECT_GT(rows, 0u);
}

TEST_F(ExportTest, FifoDepthCsvShape)
{
    const std::string csv = obs::fifoDepthCsv(*system_->tracer());
    std::istringstream is(csv);
    std::string header;
    ASSERT_TRUE(std::getline(is, header));
    EXPECT_EQ(header, "t_us,track,depth,dropped");
}

TEST_F(ExportTest, MetricsSnapshotNamesEveryTrack)
{
    const std::string snapshot = obs::metricsSnapshot(
        *system_->tracer(), system_->missProfiler());
    for (std::uint16_t t = 0; t < system_->tracer()->trackCount(); ++t)
        EXPECT_NE(snapshot.find(system_->tracer()->trackName(t)),
                  std::string::npos);
    EXPECT_NE(snapshot.find("miss profile"), std::string::npos);
}

} // namespace
} // namespace vmp
