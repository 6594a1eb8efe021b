#include "workloads.hh"

#include <algorithm>
#include <memory>
#include <ostream>

#include "cache/config.hh"
#include "core/fast_sim.hh"
#include "core/hier_system.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/miss_profiler.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace simbench
{

using namespace vmp;

std::size_t
SpanLog::open(std::string name, std::size_t parent)
{
    spans_.push_back({std::move(name), parent, Clock::now(), {}, 0});
    return spans_.size() - 1;
}

double
SpanLog::close(std::size_t id, std::uint64_t calls)
{
    Span &span = spans_.at(id);
    span.end = Clock::now();
    span.calls = calls;
    return std::chrono::duration<double>(span.end - span.start).count();
}

void
SpanLog::writeChromeTrace(std::ostream &os) const
{
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    Json events = Json::array();
    for (const auto &span : spans_) {
        if (span.end < span.start)
            continue; // never closed
        Json event = Json::object();
        event["name"] = Json(span.name);
        event["ph"] = Json("X");
        event["pid"] = Json(1);
        event["tid"] = Json(1);
        event["ts"] = Json(us(span.start));
        event["dur"] = Json(us(span.end) - us(span.start));
        Json args = Json::object();
        if (span.calls != 0)
            args["calls"] = Json(span.calls);
        if (span.parent != kNoParent)
            args["parent"] = Json(spans_.at(span.parent).name);
        event["args"] = std::move(args);
        events.push(std::move(event));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = Json("ns");
    doc.write(os, 0);
    os << "\n";
}

std::vector<bool>
Fingerprint::mismatches(const Fingerprint &expected) const
{
    const bool machine_ok = elapsedTicks == expected.elapsedTicks &&
        busAborts == expected.busAborts &&
        writeBacks == expected.writeBacks &&
        upgrades == expected.upgrades && ops.size() == expected.ops.size();
    std::vector<bool> out(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        out[i] = !machine_ok || ops[i] != expected.ops[i];
    return out;
}

Json
Fingerprint::toJson() const
{
    Json json = Json::object();
    Json list = Json::array();
    for (const auto &op : ops) {
        Json pair = Json::array();
        pair.push(Json(op[0]));
        pair.push(Json(op[1]));
        list.push(std::move(pair));
    }
    json["ops"] = std::move(list);
    json["elapsed_ticks"] = Json(elapsedTicks);
    json["bus_aborts"] = Json(busAborts);
    json["write_backs"] = Json(writeBacks);
    json["upgrades"] = Json(upgrades);
    return json;
}

Fingerprint
Fingerprint::fromJson(const Json &json)
{
    Fingerprint fp;
    for (const auto &pair : json.get("ops").items())
        fp.ops.push_back({pair.at(0).asUint(), pair.at(1).asUint()});
    fp.elapsedTicks = json.get("elapsed_ticks").asUint();
    fp.busAborts = json.get("bus_aborts").asUint();
    fp.writeBacks = json.get("write_backs").asUint();
    fp.upgrades = json.get("upgrades").asUint();
    return fp;
}

namespace
{

enum class Kind { Flat, Hier, Fig4 };

/**
 * One workload. Every event-driven workload runs the atum2 mix, one
 * trace per CPU; see README.md for why each one is in the set.
 */
struct Spec
{
    const char *name;
    Kind kind;
    /** Total CPUs (flat) or CPUs per cluster (hier). */
    std::uint32_t cpus;
    std::uint32_t clusters;
    std::uint64_t cacheBytes;
    /** One kernel image for every CPU, or a private one each. */
    bool sharedKernel;
    std::uint64_t refsPerCpu;
};

constexpr std::uint32_t kPageBytes = 256;
constexpr std::uint32_t kWays = 4;
constexpr std::uint64_t kMemBytes = MiB(8);
/** References hashed per trace stream for the input digest. */
constexpr std::size_t kDigestRefs = 4096;
/** The Figure-4 grid: 3 cache sizes x 3 page sizes x atum1-4. */
const std::vector<std::uint64_t> kFig4Sizes = {KiB(64), KiB(128), KiB(256)};
const std::vector<std::uint32_t> kFig4Pages = {128, 256, 512};
constexpr std::size_t kFig4Cells = 36;

const std::vector<Spec> &
specs()
{
    static const std::vector<Spec> all = {
        {"flat4_private", Kind::Flat, 4, 0, KiB(256), false, 240'000},
        {"flat4_shared", Kind::Flat, 4, 0, KiB(16), true, 240'000},
        {"hier4x4", Kind::Hier, 4, 4, KiB(16), false, 60'000},
        {"fig4_sweep", Kind::Fig4, 0, 0, 0, false, 0},
    };
    return all;
}

const Spec &
specOf(const std::string &name)
{
    for (const auto &spec : specs()) {
        if (name == spec.name)
            return spec;
    }
    fatal("unknown workload '", name, "'");
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Generator seed of trace stream @p stream under benchmark seed. */
std::uint64_t
traceSeed(std::uint64_t seed, std::uint64_t stream)
{
    return splitmix(seed ^ splitmix(stream));
}

void
digestRef(std::uint64_t &h, const trace::MemRef &ref)
{
    const std::uint64_t words[] = {
        ref.vaddr, ref.asid, static_cast<std::uint64_t>(ref.type),
        static_cast<std::uint64_t>(ref.supervisor)};
    for (const auto w : words) {
        h ^= w;
        h *= 0x100000001B3ULL;
    }
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/** Per-CPU atum2 trace configurations of an event-driven workload. */
std::vector<trace::SyntheticConfig>
cpuTraces(const Spec &spec, std::uint64_t seed)
{
    const std::uint32_t total = spec.kind == Kind::Hier
        ? spec.cpus * spec.clusters
        : spec.cpus;
    std::vector<trace::SyntheticConfig> out;
    for (std::uint32_t i = 0; i < total; ++i) {
        auto cfg = trace::workloadConfig("atum2");
        cfg.totalRefs = spec.refsPerCpu;
        cfg.seed = traceSeed(seed, i);
        cfg.asidBase = static_cast<Asid>(1 + i * 8);
        if (!spec.sharedKernel)
            cfg.kernelOffset = static_cast<Addr>(i) * 0x20'0000;
        out.push_back(cfg);
    }
    return out;
}

PhaseMeans
phaseMeans(const obs::MissProfiler *profiler)
{
    PhaseMeans out{};
    if (profiler == nullptr)
        return out;
    const auto total = profiler->total();
    for (std::size_t p = 0; p < out.size(); ++p)
        out[p] = total.meanPhaseUs(static_cast<obs::MissPhase>(p));
    return out;
}

/** Fill the per-board fields shared by the flat and hier machines. */
template <typename System>
void
boardCounts(System &system, std::uint32_t cpus,
            const std::vector<std::uint64_t> &refs, RepResult &out)
{
    std::uint64_t generated = 0;
    for (const auto n : refs)
        generated += n;
    auto &counts = out.counts;
    for (std::uint32_t i = 0; i < cpus; ++i) {
        const auto &ctl = system.controller(i);
        counts.ownershipMisses += ctl.ownershipMisses().value();
        counts.retries += ctl.retries().value();
        counts.wordsServiced += ctl.wordsServiced().value();
        out.fingerprint.ops.push_back({refs[i], ctl.misses().value()});
        out.broken.push_back(counts.refs != generated ||
                             ctl.deadOwnerErrors().value() != 0);
    }
}

template <typename Result>
void
resultCounts(const Result &result, Counts &counts, Fingerprint &fp)
{
    counts.refs = result.totalRefs;
    counts.misses = result.totalMisses;
    counts.writeBacks = result.writeBacks;
    counts.upgrades = result.busUpgrades;
    fp.elapsedTicks = result.elapsed;
    fp.busAborts = result.busAborts;
    fp.writeBacks = result.writeBacks;
    fp.upgrades = result.busUpgrades;
}

RepResult
eventDrivenRep(const Spec &spec, std::uint64_t seed,
               Instrument instrument, SpanLog &spans, std::size_t parent)
{
    RepResult out;

    auto span = spans.open("generate", parent);
    std::vector<trace::VectorRefSource> sources;
    std::vector<std::uint64_t> lengths;
    out.traceDigest = kFnvBasis;
    {
        const auto configs = cpuTraces(spec, seed);
        sources.reserve(configs.size());
        for (const auto &cfg : configs) {
            trace::SyntheticGen gen(cfg);
            std::vector<trace::MemRef> refs;
            refs.reserve(cfg.totalRefs);
            trace::MemRef ref;
            while (gen.next(ref))
                refs.push_back(ref);
            for (std::size_t r = 0; r < refs.size() && r < kDigestRefs; ++r)
                digestRef(out.traceDigest, refs[r]);
            lengths.push_back(refs.size());
            sources.emplace_back(std::move(refs));
        }
    }
    std::uint64_t generated = 0;
    for (const auto n : lengths)
        generated += n;
    out.generateS = spans.close(span, generated);

    std::vector<trace::RefSource *> ptrs;
    for (auto &source : sources)
        ptrs.push_back(&source);
    const auto cache_cfg =
        cache::CacheConfig::forSize(spec.cacheBytes, kPageBytes, kWays);
    const bool traced = instrument != Instrument::None;
    const bool checked = instrument == Instrument::Checked;

    if (spec.kind == Kind::Flat) {
        span = spans.open("build", parent);
        core::VmpConfig cfg;
        cfg.processors = spec.cpus;
        cfg.cache = cache_cfg;
        cfg.memBytes = kMemBytes;
        core::VmpSystem system(cfg);
        if (traced)
            system.enableTracing();
        if (checked)
            system.enableCoherenceChecker();
        out.buildS = spans.close(span);

        span = spans.open("run", parent);
        const auto result = system.runTraces(ptrs);
        out.runS = spans.close(span, result.totalRefs);

        span = spans.open("collect", parent);
        auto &counts = out.counts;
        resultCounts(result, counts, out.fingerprint);
        boardCounts(system, spec.cpus, lengths, out);
        counts.eventsDispatched = system.events().dispatched();
        counts.busTransactions = system.bus().transactions().value();
        counts.busAborts = system.bus().aborts().value();
        counts.busUtilization = result.busUtilization;
        counts.queueDelayMeanNs =
            system.bus().queueDelays().mean() * 1000.0;
        if (checked) {
            auto *checker = system.coherenceChecker();
            checker->checkFull();
            out.violations = checker->violations().value();
        }
        out.phaseUs = phaseMeans(system.missProfiler());
        spans.close(span);
        return out;
    }

    span = spans.open("build", parent);
    core::HierConfig cfg;
    cfg.clusters = spec.clusters;
    cfg.cpusPerCluster = spec.cpus;
    cfg.cache = cache_cfg;
    cfg.memBytes = kMemBytes;
    core::HierVmpSystem system(cfg);
    if (traced)
        system.enableTracing();
    if (checked)
        system.enableCoherenceCheckers();
    out.buildS = spans.close(span);

    span = spans.open("run", parent);
    const auto result = system.runTraces(ptrs);
    out.runS = spans.close(span, result.totalRefs);

    span = spans.open("collect", parent);
    auto &counts = out.counts;
    resultCounts(result, counts, out.fingerprint);
    boardCounts(system, system.totalCpus(), lengths, out);
    counts.eventsDispatched = system.events().dispatched();
    double delay_sum_us = 0.0;
    std::uint64_t delay_samples = 0;
    for (std::uint32_t c = 0; c < system.clusters(); ++c) {
        const auto &bus = system.localBus(c);
        counts.busTransactions += bus.transactions().value();
        counts.busAborts += bus.aborts().value();
        delay_sum_us += bus.queueDelays().mean() *
            static_cast<double>(bus.queueDelays().samples());
        delay_samples += bus.queueDelays().samples();
    }
    counts.busUtilization = result.meanLocalBusUtilization;
    counts.queueDelayMeanNs = delay_samples == 0
        ? 0.0
        : delay_sum_us * 1000.0 / static_cast<double>(delay_samples);
    counts.globalFetches = result.globalFetches;
    counts.globalBusUtilization = result.busUtilization;
    if (checked) {
        system.checkFullAll();
        out.violations = system.totalViolations();
    }
    out.phaseUs = phaseMeans(system.missProfiler());
    spans.close(span);
    return out;
}

/**
 * The Figure-4 grid, serially and with generation inline as
 * bench_fig4 runs it: the timed section includes SyntheticGen::next.
 * Set-up is constructing the 36 generators and caches.
 */
RepResult
fig4Rep(std::uint64_t seed, Instrument instrument, SpanLog &spans,
        std::size_t parent)
{
    RepResult out;
    auto cells = core::fig4Cells(kFig4Sizes, kFig4Pages, kWays);
    const std::size_t workloads = trace::workloadNames().size();
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].workload.seed = traceSeed(seed, i % workloads);

    auto span = spans.open("build", parent);
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<std::unique_ptr<core::FastCacheSim>> sims;
    for (const auto &cell : cells) {
        gens.push_back(std::make_unique<trace::SyntheticGen>(cell.workload));
        sims.push_back(std::make_unique<core::FastCacheSim>(cell.config));
    }
    out.buildS = spans.close(span, cells.size());

    // FastCacheSim has no tracer, so a traced rep is the same as an
    // untraced one; every rep times each cell as its own span.
    (void)instrument;
    span = spans.open("run", parent);
    std::vector<core::FastSimResult> results(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto cell_span = spans.open(cells[i].label, span);
        results[i] = sims[i]->run(*gens[i]);
        spans.close(cell_span, results[i].refs);
    }
    std::uint64_t refs = 0;
    for (const auto &r : results)
        refs += r.refs;
    out.runS = spans.close(span, refs);

    span = spans.open("collect", parent);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        out.fingerprint.ops.push_back({r.refs, r.misses});
        out.broken.push_back(r.refs != cells[i].workload.totalRefs);
        out.counts.refs += r.refs;
        out.counts.misses += r.misses;
    }
    spans.close(span);

    // Input digest from fresh generators, outside every span.
    out.traceDigest = kFnvBasis;
    for (std::size_t w = 0; w < workloads; ++w) {
        trace::SyntheticGen gen(cells[w].workload);
        trace::MemRef ref;
        for (std::size_t r = 0; r < kDigestRefs && gen.next(ref); ++r)
            digestRef(out.traceDigest, ref);
    }
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &spec : specs())
            out.emplace_back(spec.name);
        return out;
    }();
    return names;
}

std::size_t
operationCount(const std::string &workload)
{
    const Spec &spec = specOf(workload);
    switch (spec.kind) {
      case Kind::Flat: return spec.cpus;
      case Kind::Hier: return std::size_t{spec.cpus} * spec.clusters;
      case Kind::Fig4: return kFig4Cells;
    }
    return 0;
}

RepResult
runRep(const std::string &workload, std::uint64_t seed,
       Instrument instrument, SpanLog &spans, std::size_t parent)
{
    const Spec &spec = specOf(workload);
    if (spec.kind == Kind::Fig4)
        return fig4Rep(seed, instrument, spans, parent);
    return eventDrivenRep(spec, seed, instrument, spans, parent);
}

} // namespace simbench
