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
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "obs/event_tracer.hh"
#include "obs/export.hh"
#include "obs/miss_profiler.hh"
#include "proto/controller.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"
#include "vm/vm_system.hh"

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

TEST(MissProfiler, NestedMissesFoldSeparately)
{
    // The outer miss's trap and consistency-wait spans close before a
    // PTE miss nests inside it on the same track; the nested miss must
    // not fold them.
    constexpr std::uint8_t nested = obs::kNestedMissBit;
    obs::MissProfiler profiler;
    profiler.observe(makeEvent(
        0, obs::EventKind::MissPhase, 0, 2000,
        static_cast<std::uint8_t>(obs::MissPhase::Trap)));
    profiler.observe(makeEvent(
        2000, obs::EventKind::MissPhase, 0, 500,
        static_cast<std::uint8_t>(obs::MissPhase::ConsistencyWait)));
    profiler.observe(makeEvent(
        2500, obs::EventKind::MissPhase, 0, 300,
        static_cast<std::uint8_t>(obs::MissPhase::Trap) | nested));
    profiler.observe(
        makeEvent(2500, obs::EventKind::Miss, 0, 300, nested));
    profiler.observe(makeEvent(
        2500, obs::EventKind::MissPhase, 0, 700,
        static_cast<std::uint8_t>(obs::MissPhase::Trap)));
    profiler.observe(makeEvent(0, obs::EventKind::Miss, 0, 3200, 0));
    EXPECT_EQ(profiler.misses(), 2u);
    EXPECT_EQ(profiler.phaseSumMismatches(), 0u);
    const auto &full = profiler.breakdown(obs::MissKind::Full, false);
    EXPECT_EQ(full.elapsedNs, 3500u);
    EXPECT_EQ(full.phaseNs[static_cast<std::size_t>(
                  obs::MissPhase::Trap)],
              3000u);
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

// ------------------------------------------- nested (page-table) misses

TEST(TracedNestedMiss, EveryMissOfADemandPagedRunIsTraced)
{
    // PagedSystem.TraceRunWithDemandPaging's machine: the page-table
    // walk reads PTEs through the cache, so PTE misses nest inside the
    // user misses that needed the translation.
    core::VmpConfig cfg;
    cfg.processors = 1;
    cfg.cache = cache::CacheConfig{256, 4, 32, true};
    cfg.memBytes = MiB(4);
    vm::VmTranslator translator;
    core::VmpSystem system(cfg, &translator);
    vm::VmSystem vm(system.events(), system.memory());
    translator.bind(vm);
    vm.attach(system.controller(0));

    obs::EventTracer &tracer = system.enableTracing();
    std::uint64_t miss_spans = 0;
    std::uint64_t nested_spans = 0;
    tracer.addSink([&](const obs::TraceEvent &event) {
        if (event.kind != obs::EventKind::Miss)
            return;
        ++miss_spans;
        if ((event.aux & obs::kNestedMissBit) != 0)
            ++nested_spans;
    });
    auto workload = trace::workloadConfig("atum2");
    workload.totalRefs = 60'000;
    workload.seed = 7;
    workload.osRefFrac = 0.0;
    trace::SyntheticGen gen(workload);
    system.runTraces({&gen});

    const std::uint64_t misses = system.controller(0).misses().value();
    EXPECT_GT(nested_spans, 0u);
    EXPECT_EQ(miss_spans, misses);
    ASSERT_NE(system.missProfiler(), nullptr);
    EXPECT_EQ(system.missProfiler()->misses(), misses);
    EXPECT_EQ(system.missProfiler()->phaseSumMismatches(), 0u);
}

/**
 * Translator walking a "page table" through the cache, as
 * vm::VmTranslator does: each user walk reads a word of a fresh
 * supervisor page, so the read misses inside the user miss. The first
 * walk reports a page fault. Supervisor references translate to the
 * same address without a walk.
 */
class FaultingWalkTranslator : public proto::Translator
{
  public:
    static constexpr std::uint32_t pageBytes = 512;
    static constexpr Addr tableBase = 0x40000;

    void
    translate(const proto::TranslateRequest &req,
              proto::CacheController &controller) override
    {
        proto::TranslateResult mapped;
        mapped.ok = true;
        mapped.paddr = req.vaddr;
        mapped.prot = static_cast<cache::SlotFlags>(
            cache::FlagUserReadable | cache::FlagUserWritable |
            cache::FlagSupWritable);
        if (req.supervisor) {
            controller.translated(mapped);
            return;
        }
        const bool fault = walks_ == 0;
        const Addr pte = tableBase + walks_++ * pageBytes;
        controller.readWord(
            0, pte, true, [&controller, mapped, fault](std::uint32_t) {
                controller.translated(fault ? proto::TranslateResult{}
                                            : mapped);
            });
    }

  private:
    unsigned walks_ = 0;
};

TEST(TracedNestedMiss, NestedPteMissKeepsTheOuterRetryCount)
{
    constexpr std::uint32_t page = FaultingWalkTranslator::pageBytes;
    EventQueue events;
    mem::PhysMem memory(MiB(1), page);
    mem::VmeBus bus(events, memory);
    cache::Cache cache(cache::CacheConfig{page, 2, 8, true});
    monitor::BusMonitor monitor(0, MiB(1), page);
    bus.attachWatcher(0, monitor);
    FaultingWalkTranslator translator;
    proto::CacheController ctl(0, events, cache, monitor, bus,
                               translator);
    ctl.setFaultHandler([](const proto::TranslateRequest &,
                           proto::CacheController::Done retry) {
        retry();
    });

    obs::EventTracer tracer;
    obs::MissProfiler profiler;
    tracer.addSink(profiler.sink());
    std::vector<obs::TraceEvent> miss_spans;
    tracer.addSink([&](const obs::TraceEvent &event) {
        if (event.kind == obs::EventKind::Miss)
            miss_spans.push_back(event);
    });
    ctl.setTracer(&tracer, tracer.registerTrack("cpu0"));

    bool done = false;
    ctl.access(1, 0x10000, false, false,
               [&](proto::AccessOutcome) { done = true; });
    events.run();
    ASSERT_TRUE(done);

    // One user miss, retried once after its fault, with a PTE miss
    // nested in each of its two walks; the second nests after the
    // retry and must not reset the outer miss's count.
    EXPECT_EQ(ctl.misses().value(), 3u);
    EXPECT_EQ(ctl.retries().value(), 1u);
    const auto &per_miss = ctl.retriesPerMiss().buckets();
    EXPECT_EQ(per_miss[0], 2u);
    EXPECT_EQ(per_miss[1], 1u);
    ASSERT_EQ(miss_spans.size(), 3u);
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_NE(miss_spans[i].aux & obs::kNestedMissBit, 0);
    EXPECT_EQ(miss_spans[2].aux & obs::kNestedMissBit, 0);
    EXPECT_EQ(miss_spans[2].arg1, 1u);
    EXPECT_EQ(profiler.misses(), 3u);
    EXPECT_EQ(profiler.total().retries, 1u);
    EXPECT_EQ(profiler.phaseSumMismatches(), 0u);
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

// -------------------------------------------------- record vocabulary

/** Every field of a TraceEvent, for the vocabulary table. */
obs::TraceEvent
fullEvent(obs::EventKind kind, Tick at, std::uint64_t arg0,
          std::uint8_t aux = 0, std::uint64_t addr = 0,
          std::uint64_t arg1 = 0, std::uint32_t master = 0)
{
    obs::TraceEvent event = makeEvent(at, kind, 1, arg0, aux);
    event.addr = addr;
    event.arg1 = arg1;
    event.master = master;
    return event;
}

/** writeChromeTrace's whole document for a tracer holding @p events
 *  on two tracks named @p track0 and "t1". */
Json
exportedDocument(const std::vector<obs::TraceEvent> &events,
                 const std::string &track0 = "t0")
{
    obs::EventTracer tracer;
    tracer.registerTrack(track0);
    tracer.registerTrack("t1");
    for (const obs::TraceEvent &event : events)
        tracer.record(event);
    std::ostringstream os;
    obs::writeChromeTrace(tracer, os);
    return Json::parse(os.str());
}

/** One event and the exact record the exporter must write for it. */
struct VocabularyCase
{
    obs::TraceEvent event;
    const char *expected;
};

TEST(ChromeRecord, VocabularyTable)
{
    using K = obs::EventKind;
    const auto phase = [](obs::MissPhase p) {
        return static_cast<std::uint8_t>(p);
    };
    const std::vector<VocabularyCase> cases = {
        {fullEvent(K::BusTx, 1500, 2250, 3, 16384, 300, 2),
         R"({"name":"bus_tx","ph":"X","pid":0,"tid":1,"ts":1.5,
             "dur":2.25,"args":{"addr":16384,"tx_type":3,
             "aborted":false,"master":2,"queue_delay_ns":300}})"},
        {fullEvent(K::BusTx, 123456789, 1000, 0x81, 4294967295u, 0,
                   7),
         R"({"name":"bus_tx","ph":"X","pid":0,"tid":1,
             "ts":123456.789,"dur":1,"args":{"addr":4294967295,
             "tx_type":1,"aborted":true,"master":7,
             "queue_delay_ns":0}})"},
        {fullEvent(K::Copy, 2000, 12800, 2, 8192, 6400, 1),
         R"({"name":"copy","ph":"X","pid":0,"tid":1,"ts":2,
             "dur":12.8,"args":{"addr":8192,"tx_type":2,
             "aborted":false,"master":1,"bus_time_ns":6400}})"},
        {fullEvent(K::Miss, 1234, 40000, 0, 4096, 0),
         R"({"name":"miss","ph":"X","pid":0,"tid":1,"ts":1.234,
             "dur":40,"args":{"addr":4096,"dirty":false,
             "kind":"full","retries":0}})"},
        {fullEvent(K::Miss, 1234, 40001, 1u << 1, 4096, 2),
         R"({"name":"miss","ph":"X","pid":0,"tid":1,"ts":1.234,
             "dur":40.001,"args":{"addr":4096,"dirty":false,
             "kind":"ownership","retries":2}})"},
        {fullEvent(K::Miss, 5, 61500, (2u << 1) | 1u, 256, 1),
         R"({"name":"miss","ph":"X","pid":0,"tid":1,"ts":0.005,
             "dur":61.5,"args":{"addr":256,"dirty":true,
             "kind":"protection","retries":1}})"},
        {fullEvent(K::MissPhase, 10, 2000, phase(obs::MissPhase::Trap)),
         R"({"name":"trap","ph":"X","pid":0,"tid":1,"ts":0.01,
             "dur":2,"args":{}})"},
        {fullEvent(K::MissPhase, 20, 8100,
                   phase(obs::MissPhase::TableLookup)),
         R"({"name":"table_lookup","ph":"X","pid":0,"tid":1,
             "ts":0.02,"dur":8.1,"args":{}})"},
        {fullEvent(K::MissPhase, 30, 12800,
                   phase(obs::MissPhase::VictimWriteback)),
         R"({"name":"victim_writeback","ph":"X","pid":0,"tid":1,
             "ts":0.03,"dur":12.8,"args":{}})"},
        {fullEvent(K::MissPhase, 40, 6600,
                   phase(obs::MissPhase::BlockCopy)),
         R"({"name":"block_copy","ph":"X","pid":0,"tid":1,
             "ts":0.04,"dur":6.6,"args":{}})"},
        {fullEvent(K::MissPhase, 50, 0,
                   phase(obs::MissPhase::ConsistencyWait)),
         R"({"name":"consistency_wait","ph":"X","pid":0,"tid":1,
             "ts":0.05,"dur":0,"args":{}})"},
        {fullEvent(K::Service, 3000, 4500, 0, 0, 7),
         R"({"name":"service","ph":"X","pid":0,"tid":1,"ts":3,
             "dur":4.5,"args":{"words":7}})"},
        {fullEvent(K::IbcFetch, 4000, 9000, 1, 65536),
         R"({"name":"ibc_fetch","ph":"X","pid":0,"tid":1,"ts":4,
             "dur":9,"args":{"addr":65536,"exclusive":true,
             "upgrade":false}})"},
        {fullEvent(K::IbcFetch, 4000, 9000, 2, 65536),
         R"({"name":"ibc_fetch","ph":"X","pid":0,"tid":1,"ts":4,
             "dur":9,"args":{"addr":65536,"exclusive":false,
             "upgrade":true}})"},
        {fullEvent(K::Recovery, 7000, 100000, 0, 0, 0, 3),
         R"({"name":"recovery","ph":"X","pid":0,"tid":1,"ts":7,
             "dur":100,"args":{"dead_board":3}})"},
        {fullEvent(K::TierFetch, 8000, 500000, 1, 0, 9, 4),
         R"({"name":"tier_fetch","ph":"X","pid":0,"tid":1,"ts":8,
             "dur":500,"args":{}})"},
        {fullEvent(K::TierStore, 8000, 250, 1, 0, 9, 4),
         R"({"name":"tier_store","ph":"X","pid":0,"tid":1,"ts":8,
             "dur":0.25,"args":{}})"},
        {fullEvent(K::TierEvict, 8000, 750, 2, 0, 9, 4),
         R"({"name":"tier_evict","ph":"X","pid":0,"tid":1,"ts":8,
             "dur":0.75,"args":{}})"},
        {fullEvent(K::IrqWord, 500, 0, 0x82, 12288, 0, 5),
         R"({"name":"irq_word","ph":"i","pid":0,"tid":1,"ts":0.5,
             "s":"t","args":{"addr":12288,"master":5}})"},
        {fullEvent(K::FifoDepth, 3000, 5, 1),
         R"({"name":"fifo_depth","ph":"C","pid":0,"tid":1,"ts":3,
             "args":{"depth":5}})"},
        {fullEvent(K::IbcRecall, 1, 0, 0, 512, 0, 6),
         R"({"name":"ibc_recall","ph":"i","pid":0,"tid":1,"ts":0.001,
             "s":"t","args":{"addr":512,"master":6}})"},
        {fullEvent(K::IbcWriteBack, 2, 0, 0, 1024, 0, 6),
         R"({"name":"ibc_writeback","ph":"i","pid":0,"tid":1,
             "ts":0.002,"s":"t","args":{"addr":1024,"master":6}})"},
        {fullEvent(K::RecoveryBegin, 9000, 0, 0, 0, 0, 3),
         R"({"name":"recovery_begin","ph":"i","pid":0,"tid":1,"ts":9,
             "s":"t","args":{"addr":0,"master":3}})"},
        {fullEvent(K::Reclaim, 9001, 0, 0, 2048, 0, 3),
         R"({"name":"reclaim","ph":"i","pid":0,"tid":1,"ts":9.001,
             "s":"t","args":{"addr":2048,"master":3}})"},
        {fullEvent(K::TierPrefetch, 9500, 0, 0, 0, 11, 4),
         R"({"name":"tier_prefetch","ph":"i","pid":0,"tid":1,
             "ts":9.5,"s":"t","args":{"addr":0,"master":4}})"},
        {fullEvent(K::BudgetEpoch, 10000, 3, 0, 0, 1),
         R"({"name":"budget_epoch","ph":"i","pid":0,"tid":1,"ts":10,
             "s":"t","args":{"addr":0,"master":0}})"},
    };

    // Every kind and every miss phase appears in the table.
    std::vector<bool> kinds(obs::kEventKinds, false);
    std::vector<bool> phases(obs::kMissPhases, false);
    for (const VocabularyCase &c : cases) {
        kinds[static_cast<std::size_t>(c.event.kind)] = true;
        if (c.event.kind == K::MissPhase)
            phases[c.event.aux] = true;
    }
    EXPECT_EQ(std::count(kinds.begin(), kinds.end(), false), 0);
    EXPECT_EQ(std::count(phases.begin(), phases.end(), false), 0);

    for (const VocabularyCase &c : cases) {
        const Json doc = exportedDocument({c.event});
        const Json &records = doc.get("traceEvents");
        ASSERT_EQ(records.size(), 3u) << c.expected;
        EXPECT_EQ(records.at(2), Json::parse(c.expected))
            << records.at(2).dump(0);
    }
}

TEST(ChromeRecord, TrackNamesAreEscapedInMetadata)
{
    const Json doc = exportedDocument({}, "say \"hi\" \\ bye");
    EXPECT_EQ(doc.get("displayTimeUnit").asString(), "ns");
    const Json &records = doc.get("traceEvents");
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records.at(0),
              Json::parse(R"({"name":"thread_name","ph":"M","pid":0,
                  "tid":0,"args":{"name":"say \"hi\" \\ bye"}})"));
    EXPECT_EQ(records.at(1),
              Json::parse(R"({"name":"thread_name","ph":"M","pid":0,
                  "tid":1,"args":{"name":"t1"}})"));
}

// ------------------------------------------------------------ exports

/** writeChromeTrace's output for @p tracer, parsed. */
Json
chromeTraceDoc(const obs::EventTracer &tracer)
{
    std::ostringstream os;
    obs::writeChromeTrace(tracer, os);
    return Json::parse(os.str());
}

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
    const Json doc = chromeTraceDoc(tracer);
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
}

TEST_F(ExportTest, ChromeTraceEventsAreTimeOrdered)
{
    const Json doc = chromeTraceDoc(*system_->tracer());
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
