#include "ladder.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <streambuf>

#include "cache/cache.hh"
#include "core/fast_sim.hh"
#include "core/hier_system.hh"
#include "core/system.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "obs/event_tracer.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "telemetry/streaming_sink.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace simbench
{

using namespace vmp;

namespace
{

constexpr std::uint32_t kPageBytes = 256;
constexpr std::uint64_t kMemBytes = MiB(8);
/** Host time one timed batch aims at. */
constexpr double kBatchS = 0.005;
constexpr int kMinBatches = 5;

/** Keeps results observable so the timed loops are not folded away. */
volatile std::uint64_t g_sink = 0;

/**
 * A ladder case: state built up front, and a body that makes @p n
 * calls into the layer. `limit` caps the calls a case can make in
 * total (0 = unbounded), for cases that consume a finite resource.
 */
struct Case
{
    std::string name;
    std::function<void(std::uint64_t n)> body;
    std::function<void()> check = [] {};
    std::uint64_t limit = 0;
};

double
seconds(SpanLog::Clock::time_point since)
{
    return std::chrono::duration<double>(SpanLog::Clock::now() - since)
        .count();
}

LadderResult
measure(Case &c, double budget_s, SpanLog &spans, std::size_t parent)
{
    // Warm-up: fills caches and lazily built state, and sizes a batch.
    std::uint64_t used = 0;
    std::uint64_t batch = 16;
    for (;;) {
        const auto t0 = SpanLog::Clock::now();
        c.body(batch);
        used += batch;
        const double took = seconds(t0);
        if (took >= kBatchS / 4 || (c.limit && used * 8 >= c.limit)) {
            batch = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       static_cast<double>(batch) * kBatchS / took));
            break;
        }
        batch *= 4;
    }
    if (c.limit) {
        const std::uint64_t left = c.limit > used ? c.limit - used : 0;
        batch = std::min(batch, std::max<std::uint64_t>(
                                    1, left / (2 * kMinBatches)));
    }

    const auto span = spans.open(c.name, parent);
    const auto start = SpanLog::Clock::now();
    std::vector<double> per_call;
    std::uint64_t calls = 0;
    while (static_cast<int>(per_call.size()) < kMinBatches ||
           seconds(start) < budget_s) {
        if (c.limit && used + batch > c.limit)
            break;
        const auto t0 = SpanLog::Clock::now();
        c.body(batch);
        per_call.push_back(seconds(t0) * 1e9 /
                           static_cast<double>(batch));
        used += batch;
        calls += batch;
    }
    spans.close(span, calls);
    c.check();
    if (per_call.empty())
        fatal("ladder case ", c.name, " ran no timed batch");
    std::sort(per_call.begin(), per_call.end());
    return {c.name, per_call[per_call.size() / 2], calls};
}

/** Discards everything written to it. */
class NullBuf : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

trace::SyntheticConfig
ladderTrace(std::uint64_t refs)
{
    auto cfg = trace::workloadConfig("atum2");
    cfg.totalRefs = refs;
    return cfg;
}

/** EventQueue::schedule + step with eight other events pending, about
 *  the depth a 4-CPU flat run keeps (one step per CPU plus bus work). */
Case
scheduleDispatch()
{
    auto q = std::make_shared<EventQueue>();
    for (Tick d = 0; d < 8; ++d)
        q->schedule(maxTick / 2 + d, [] {});
    return {"sim.schedule_dispatch_ns", [q](std::uint64_t n) {
                std::uint64_t fired = 0;
                for (std::uint64_t i = 0; i < n; ++i) {
                    q->scheduleIn(1 + (i & 7), [&fired] { ++fired; });
                    q->step();
                }
                g_sink = g_sink + fired;
            }};
}

Case
generatorNext()
{
    auto gen = std::make_shared<trace::SyntheticGen>(
        ladderTrace(std::uint64_t{1} << 40));
    return {"trace.next_ns", [gen](std::uint64_t n) {
                trace::MemRef ref;
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i) {
                    gen->next(ref);
                    acc += ref.vaddr;
                }
                g_sink = g_sink + acc;
            }};
}

/**
 * Cache::access on a full 256 KiB / 4-way / 256 B cache (the prototype
 * geometry). Hits cycle over every resident page in a scattered
 * order; misses present the same addresses under an ASID no slot holds,
 * so each one runs the set search and the LRU victim suggestion.
 */
Case
cacheAccess(bool hit)
{
    auto c = std::make_shared<cache::Cache>(
        cache::CacheConfig::forSize(KiB(256), kPageBytes, 4, false));
    const std::uint32_t sets = c->config().sets;
    const std::uint32_t ways = c->config().ways;
    auto addrs = std::make_shared<std::vector<Addr>>();
    for (std::uint32_t way = 0; way < ways; ++way) {
        for (std::uint32_t set = 0; set < sets; ++set) {
            const Addr vaddr =
                trace::userBase + Addr(way * sets + set) * kPageBytes;
            c->fill(set * ways + way, c->tagFor(1, vaddr),
                    cache::FlagUserReadable | cache::FlagUserWritable |
                        cache::FlagSupWritable);
            addrs->push_back(vaddr + 4 * ((way + set) % 64));
        }
    }
    // Scatter the order: stride coprime with the slot count.
    auto order = std::make_shared<std::vector<Addr>>();
    for (std::size_t i = 0; i < addrs->size(); ++i)
        order->push_back((*addrs)[(i * 1237) % addrs->size()]);
    const Asid asid = hit ? 1 : 2;
    auto outcomes = std::make_shared<std::uint64_t>(0);
    Case out{hit ? "cache.access_hit_ns" : "cache.access_miss_ns",
             [c, order, asid, outcomes](std::uint64_t n) {
                 const std::size_t size = order->size();
                 std::size_t pos = static_cast<std::size_t>(
                     g_sink % size);
                 std::uint64_t hits = 0;
                 for (std::uint64_t i = 0; i < n; ++i) {
                     hits += c->access(asid, (*order)[pos], false, false)
                                 .hit;
                     pos = pos + 1 == size ? 0 : pos + 1;
                 }
                 *outcomes += hits;
                 g_sink = g_sink + pos;
             }};
    out.check = [c, hit, outcomes] {
        const bool all_hits = *outcomes == c->hits().value() &&
            c->misses().value() == 0;
        const bool all_misses = *outcomes == 0 && c->hits().value() == 0;
        if (hit ? !all_hits : !all_misses)
            fatal("ladder: cache.access case saw the wrong outcome");
    };
    return out;
}

/** FastCacheSim::step over a replayed atum2 stream, warm cache. */
Case
fastStep()
{
    auto sim = std::make_shared<core::FastCacheSim>(
        cache::CacheConfig::forSize(KiB(128), kPageBytes, 4, false));
    auto refs = std::make_shared<std::vector<trace::MemRef>>();
    trace::SyntheticGen gen(ladderTrace(1 << 18));
    trace::MemRef ref;
    while (gen.next(ref))
        refs->push_back(ref);
    auto pos = std::make_shared<std::size_t>(0);
    return {"core.fast_step_ns", [sim, refs, pos](std::uint64_t n) {
                std::uint64_t misses = 0;
                const std::size_t size = refs->size();
                for (std::uint64_t i = 0; i < n; ++i) {
                    misses += sim->step((*refs)[*pos]);
                    *pos = *pos + 1 == size ? 0 : *pos + 1;
                }
                g_sink = g_sink + misses;
            }};
}

/** The frames the monitor and bus cases touch, and their table state. */
constexpr std::uint64_t kLadderFrames = 4096;

/**
 * BusMonitor::observe on read-shared traffic from another board, over
 * a table of Ignore and Shared entries: the verdict is "no action",
 * the common case on a busy bus.
 */
Case
monitorObserve()
{
    auto mon = std::make_shared<monitor::BusMonitor>(0, kMemBytes,
                                                     kPageBytes);
    mon->setInterruptLine([] {});
    auto txs = std::make_shared<std::vector<mem::BusTransaction>>();
    for (std::uint64_t f = 0; f < kLadderFrames; ++f) {
        const Addr paddr = f * kPageBytes;
        if (f % 2)
            mon->table().setFor(paddr, mem::ActionEntry::Shared);
        mem::BusTransaction tx;
        tx.type = mem::TxType::ReadShared;
        tx.requester = 1;
        tx.paddr = paddr;
        tx.bytes = kPageBytes;
        txs->push_back(tx);
    }
    Case out{"monitor.observe_ns", [mon, txs](std::uint64_t n) {
                 std::uint64_t acted = 0;
                 const std::size_t size = txs->size();
                 std::size_t pos = static_cast<std::size_t>(
                     g_sink % size);
                 for (std::uint64_t i = 0; i < n; ++i) {
                     acted += mon->observe((*txs)[pos]) !=
                         mem::WatchVerdict::Ignore;
                     pos = pos + 1 == size ? 0 : pos + 1;
                 }
                 g_sink = g_sink + acted + pos;
             }};
    out.check = [mon] {
        if (mon->interrupts().value() != 0)
            fatal("ladder: monitor.observe case raised interrupts");
    };
    return out;
}

/** One read-shared page transfer through VmeBus::request, run to
 *  completion on its own event queue, with four monitors watching. */
Case
busTransaction()
{
    struct Rig
    {
        EventQueue events;
        mem::PhysMem memory{kMemBytes, kPageBytes};
        mem::VmeBus bus{events, memory};
        std::vector<std::unique_ptr<monitor::BusMonitor>> monitors;
        std::vector<std::uint8_t> buffer =
            std::vector<std::uint8_t>(kPageBytes);
        std::uint64_t completed = 0;
        std::uint64_t issued = 0;
    };
    auto rig = std::make_shared<Rig>();
    for (std::uint32_t id = 0; id < 4; ++id) {
        rig->monitors.push_back(std::make_unique<monitor::BusMonitor>(
            id, kMemBytes, kPageBytes));
        rig->monitors.back()->setInterruptLine([] {});
        rig->bus.attachWatcher(id, *rig->monitors.back());
    }
    Case out{"mem.bus_tx_ns", [rig](std::uint64_t n) {
                 for (std::uint64_t i = 0; i < n; ++i) {
                     mem::BusTransaction tx;
                     tx.type = mem::TxType::ReadShared;
                     tx.requester = static_cast<std::uint32_t>(i & 3);
                     tx.paddr = (rig->issued++ % kLadderFrames) *
                         kPageBytes;
                     tx.bytes = kPageBytes;
                     tx.data = rig->buffer.data();
                     rig->bus.request(tx, [rig](const mem::TxResult &r) {
                         rig->completed += !r.aborted;
                     });
                     rig->events.run();
                 }
             }};
    out.check = [rig] {
        if (rig->completed != rig->issued)
            fatal("ladder: mem.bus_tx case lost transactions");
    };
    return out;
}

/**
 * Full misses on an idle 4-board machine with 16 KiB caches, cycling
 * over four cache-fulls of pages so every access misses. The clean
 * case reads through CacheController::access, so victims stay clean;
 * the dirty case writes through CacheController::writeWord (access
 * plus the store that marks the slot modified), so each of its misses
 * also writes the previous dirty victim back.
 */
Case
controllerMiss(bool dirty)
{
    struct Rig
    {
        std::unique_ptr<core::VmpSystem> system;
        std::uint64_t next = 0;
        std::uint64_t issued = 0;
        std::uint64_t missesBefore = 0;
        std::uint64_t writeBacksBefore = 0;
    };
    auto rig = std::make_shared<Rig>();
    core::VmpConfig cfg;
    cfg.processors = 4;
    cfg.cache = cache::CacheConfig::forSize(KiB(16), kPageBytes, 4);
    cfg.memBytes = kMemBytes;
    rig->system = std::make_unique<core::VmpSystem>(cfg);
    rig->system->attachIdleServicers();
    const std::uint64_t pages = 4 * (KiB(16) / kPageBytes);
    const Addr base = trace::userBase + (dirty ? MiB(1) : 0);
    Case out{dirty ? "proto.miss_dirty_ns" : "proto.miss_clean_ns",
             [rig, pages, base, dirty](std::uint64_t n) {
                 auto &ctl = rig->system->controller(0);
                 for (std::uint64_t i = 0; i < n; ++i) {
                     const Addr vaddr =
                         base + (rig->next++ % pages) * kPageBytes;
                     if (dirty)
                         ctl.writeWord(1, vaddr, 1, false, [] {});
                     else
                         ctl.access(1, vaddr, false, false,
                                    [](proto::AccessOutcome) {});
                     rig->system->events().run();
                 }
                 rig->issued += n;
             }};
    // Warm-up fills the cache; from then on every call is one full miss
    // (and, for writes, one victim write-back).
    out.check = [rig, dirty] {
        const auto &ctl = rig->system->controller(0);
        if (ctl.misses().value() != rig->issued)
            fatal("ladder: proto miss case saw hits");
        const std::uint64_t slots = KiB(16) / kPageBytes;
        if (dirty && ctl.writeBacks().value() + slots != rig->issued)
            fatal("ladder: proto.miss_dirty case wrote back too little");
        if (!dirty && ctl.writeBacks().value() != 0)
            fatal("ladder: proto.miss_clean case wrote back");
    };
    return out;
}

/**
 * A CPU read miss that goes through the cluster's inter-bus board to
 * the global bus: a 2x1 HierVmpSystem, each call to a page no cluster
 * has touched yet. Fresh pages consume main-memory frames, so the case
 * is capped below the frame count.
 */
Case
hierGlobalFetch()
{
    constexpr std::uint64_t kHierMem = MiB(16);
    struct Rig
    {
        std::unique_ptr<core::HierVmpSystem> system;
        std::uint64_t issued = 0;
    };
    auto rig = std::make_shared<Rig>();
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 1;
    cfg.cache = cache::CacheConfig::forSize(KiB(16), kPageBytes, 4);
    cfg.memBytes = kHierMem;
    rig->system = std::make_unique<core::HierVmpSystem>(cfg);
    rig->system->attachIdleServicers();
    Case out{"hier.global_fetch_ns", [rig](std::uint64_t n) {
                 auto &ctl = rig->system->controller(0);
                 for (std::uint64_t i = 0; i < n; ++i) {
                     const Addr vaddr =
                         trace::userBase + rig->issued++ * kPageBytes;
                     ctl.access(1, vaddr, false, false,
                                [](proto::AccessOutcome) {});
                     rig->system->events().run();
                 }
             }};
    out.limit = kHierMem / kPageBytes * 3 / 4;
    out.check = [rig] {
        if (rig->system->interBusBoard(0).globalFetches() != rig->issued)
            fatal("ladder: hier.global_fetch case missed the global bus");
    };
    return out;
}

/** StreamingSink::onEvent, reached through EventTracer::record (its
 *  only public entry) with the sink attached; output is discarded
 *  after serialization. */
Case
sinkEvent()
{
    struct Rig
    {
        NullBuf buf;
        std::ostream out{&buf};
        EventQueue events;
        obs::EventTracer tracer{std::size_t{1} << 12};
        std::unique_ptr<telemetry::StreamingSink> sink;
        std::uint16_t track = 0;
        Tick at = 0;
    };
    auto rig = std::make_shared<Rig>();
    rig->track = rig->tracer.registerTrack("bus");
    rig->sink = std::make_unique<telemetry::StreamingSink>(rig->out);
    rig->sink->attach(rig->tracer, rig->events);
    Case out{"telemetry.sink_event_ns", [rig](std::uint64_t n) {
                 obs::TraceEvent event;
                 event.kind = obs::EventKind::BusTx;
                 event.track = rig->track;
                 event.arg0 = 2900;
                 for (std::uint64_t i = 0; i < n; ++i) {
                     event.at = rig->at;
                     event.addr = (i % kLadderFrames) * kPageBytes;
                     event.master = static_cast<std::uint32_t>(i & 3);
                     rig->at += 3000;
                     rig->tracer.record(event);
                 }
             }};
    out.check = [rig] {
        rig->sink->close();
        if (rig->sink->droppedTotal() != 0)
            fatal("ladder: telemetry sink dropped events");
    };
    return out;
}

/** Every case, by metric name; each is built only when it runs, so its
 *  state is the only thing warm while it is timed. */
const std::vector<std::pair<std::string, std::function<Case()>>> &
cases()
{
    static const std::vector<std::pair<std::string, std::function<Case()>>>
        all = {
            {"sim.schedule_dispatch_ns", scheduleDispatch},
            {"trace.next_ns", generatorNext},
            {"cache.access_hit_ns", [] { return cacheAccess(true); }},
            {"cache.access_miss_ns", [] { return cacheAccess(false); }},
            {"core.fast_step_ns", fastStep},
            {"monitor.observe_ns", monitorObserve},
            {"mem.bus_tx_ns", busTransaction},
            {"proto.miss_clean_ns", [] { return controllerMiss(false); }},
            {"proto.miss_dirty_ns", [] { return controllerMiss(true); }},
            {"hier.global_fetch_ns", hierGlobalFetch},
            {"telemetry.sink_event_ns", sinkEvent},
        };
    return all;
}

} // namespace

std::vector<LadderResult>
runLadder(double budget_s, SpanLog &spans, std::size_t parent)
{
    std::vector<LadderResult> out;
    const double per_case =
        budget_s / static_cast<double>(cases().size());
    for (const auto &[name, make] : cases()) {
        Case c = make();
        if (c.name != name)
            panic("ladder: case ", c.name, " registered as ", name);
        out.push_back(measure(c, per_case, spans, parent));
    }
    return out;
}

} // namespace simbench
