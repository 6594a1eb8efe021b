/**
 * @file
 * Telemetry acceptance bench. Four properties of the src/telemetry
 * subsystem are checked and *encoded in the exit status*:
 *
 *  1. Streamed-vs-post-hoc equivalence: on an identical seeded run,
 *     the streaming sink's incrementally-written Chrome-trace output
 *     parses to the same event set as the post-hoc writeChromeTrace
 *     exporter (the stream is in record order, the exporter sorts by
 *     (tick, track) — the comparison sorts both sides), with zero
 *     sink drops and zero ring overwrites at default ring sizes.
 *
 *  2. Attached-sink identity: the run with the sink attached is
 *     simulation-identical (fingerprint bit-identical) to the
 *     untraced run — the sink is pure observation.
 *
 *  3. Attached-sink overhead: host wall-clock (min of interleaved
 *     trials) with the sink streaming to a file is within 5% of the
 *     traced-only run (plus a small absolute slack against timer
 *     noise on fast hosts).
 *
 *  4. Replay correctness: vmp_replay's engine (ReplaySession)
 *     reconstructs the correct owner of a contended frame at three
 *     probed timestamps in a scripted ownership ping-pong, and — on
 *     the torture-style contended run of (1) — agrees with the live
 *     inspection snapshot's Protect action-table entries at
 *     end-of-run quiescence, frame for frame.
 *
 * Artifacts: BENCH_telemetry.json plus the streamed trace
 * (BENCH_telemetry.stream.json) and gauge snapshots
 * (BENCH_telemetry.gauges.jsonl) the CI replay smoke consumes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "obs/export.hh"
#include "proto/translator.hh"
#include "telemetry/inspect.hh"
#include "telemetry/replay.hh"
#include "telemetry/streaming_sink.hh"
#include "telemetry/system_gauges.hh"

namespace
{

using namespace vmp;

/** Simulated-outcome fingerprint of one multi-CPU workload run. */
struct RunFingerprint
{
    core::RunResult result;
    double wallSeconds = 0.0;

    bool
    operator==(const RunFingerprint &other) const
    {
        return result.elapsed == other.result.elapsed &&
               result.totalRefs == other.result.totalRefs &&
               result.totalMisses == other.result.totalMisses &&
               result.missRatio == other.result.missRatio &&
               result.performance == other.result.performance &&
               result.busUtilization == other.result.busUtilization &&
               result.busAborts == other.result.busAborts &&
               result.writeBacks == other.result.writeBacks;
    }
};

enum class Mode
{
    Untraced,
    Traced,
    TracedWithSink,
};

constexpr std::uint32_t kCpus = 4;
constexpr std::uint64_t kIdentityRefs = 40'000;
/** Longer runs for the wall-clock comparison: at tens of
 *  milliseconds, scheduler noise alone can exceed the 5% budget. */
constexpr std::uint64_t kOverheadRefs = 150'000;
constexpr int kOverheadTrials = 5;

/** State of one traced+sink run, kept alive for post-run queries. */
struct SinkRun
{
    std::unique_ptr<core::VmpSystem> system;
    std::unique_ptr<telemetry::StreamingSink> sink;
};

/**
 * The bench_obs workload (atum2 mix, shared kernel so consistency
 * traffic exercises the monitor/FIFO events), with the telemetry
 * pipeline optionally attached. The sink streams to @p events_out
 * (plus a JSONL gauge side channel when @p gauges_out is non-null);
 * attach happens before and close() after the timed window, matching
 * how a real run brackets the simulation.
 */
RunFingerprint
runWorkload(Mode mode, std::uint64_t seed_base,
            std::uint64_t refs_per_cpu,
            std::ostream *events_out = nullptr,
            std::ostream *gauges_out = nullptr,
            SinkRun *run_out = nullptr)
{
    core::VmpConfig cfg;
    cfg.processors = kCpus;
    cfg.cache = cache::CacheConfig::forSize(KiB(64), 256, 4, true);
    cfg.memBytes = MiB(8);
    auto system = std::make_unique<core::VmpSystem>(cfg);
    std::unique_ptr<telemetry::StreamingSink> sink;
    if (mode != Mode::Untraced) {
        obs::EventTracer &tracer = system->enableTracing();
        if (mode == Mode::TracedWithSink) {
            sink = std::make_unique<telemetry::StreamingSink>(
                *events_out);
            if (gauges_out != nullptr)
                sink->setGaugeStream(gauges_out);
            telemetry::attachSystemGauges(*sink, *system);
            sink->attach(tracer, system->events());
        }
    }

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < kCpus; ++i) {
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = refs_per_cpu;
        workload.seed = seed_base + i;
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }

    RunFingerprint fp;
    const auto wall_start = std::chrono::steady_clock::now();
    fp.result = system->runTraces(sources);
    fp.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (sink != nullptr)
        sink->close();
    if (run_out != nullptr) {
        run_out->system = std::move(system);
        run_out->sink = std::move(sink);
    }
    return fp;
}

/** Sorted compact dumps of a Chrome-trace traceEvents array, for
 *  order-insensitive event-for-event comparison. */
std::vector<std::string>
sortedRecords(const Json &doc)
{
    std::vector<std::string> out;
    for (const Json &record : doc.get("traceEvents").items())
        out.push_back(record.dump(0));
    std::sort(out.begin(), out.end());
    return out;
}

std::string
deriveSiblingPath(const std::string &json_out, const std::string &ext)
{
    const std::string suffix = ".json";
    if (json_out.size() > suffix.size() &&
        json_out.compare(json_out.size() - suffix.size(),
                         suffix.size(), suffix) == 0) {
        return json_out.substr(0, json_out.size() - suffix.size()) +
               ext;
    }
    return json_out + ext;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path);
    if (!os)
        fatal("bench_telemetry: cannot open ", path);
    os << content;
    std::cout << "[artifact] wrote " << path << "\n";
}

/**
 * Scripted ownership ping-pong on a 2-board system: board 0 writes a
 * shared frame (acquires Protect), board 1 writes it (recalled from
 * board 0, acquires), board 0 takes it back. The streamed trace is
 * replayed and probed at quiescent ticks after each handoff; the
 * reconstructed owners must read 0, 1, 0.
 */
void
replayPingPong(bench::Artifact &artifact, bench::Gate &gate)
{
    constexpr std::uint32_t kPage = 256;
    constexpr Addr va = 0x10000;
    constexpr Addr pa = 0x4000;
    const auto prot = static_cast<cache::SlotFlags>(
        cache::FlagSupWritable | cache::FlagUserReadable |
        cache::FlagUserWritable);

    core::VmpConfig cfg;
    cfg.processors = 2;
    cfg.cache = cache::CacheConfig{kPage, 2, 8, true};
    cfg.memBytes = MiB(1);
    proto::FixedTranslator translator(kPage);
    translator.map(1, va, pa, prot);
    translator.map(2, va, pa, prot);

    core::VmpSystem system(cfg, &translator);
    system.attachIdleServicers();
    obs::EventTracer &tracer = system.enableTracing();
    std::ostringstream stream;
    telemetry::StreamingSink sink(stream);
    sink.attach(tracer, system.events());

    const auto writeFrom = [&](std::size_t cpu, Asid asid) {
        bool done = false;
        system.controller(cpu).writeWord(asid, va, 0xabcd, false,
                                         [&] { done = true; });
        system.events().run();
        if (!done)
            fatal("bench_telemetry: ping-pong write did not finish");
        return system.events().now();
    };

    const Tick t0 = writeFrom(0, 1); // board 0 acquires Protect
    const Tick t1 = writeFrom(1, 2); // recalled to board 1
    const Tick t2 = writeFrom(0, 1); // and back to board 0
    sink.close();

    const auto session =
        telemetry::ReplaySession::fromText(stream.str());
    const std::uint32_t expected[] = {0, 1, 0};
    const Tick probes[] = {t0, t1, t2};
    Json probe_rows = Json::array();
    for (int i = 0; i < 3; ++i) {
        const auto verdict = session.ownerAt(pa, probes[i]);
        char label[64];
        std::snprintf(label, sizeof label,
                      "replay/probe@t%d: owner is board %u", i,
                      expected[i]);
        gate.check(verdict.owned && verdict.board == expected[i], label);
        std::cout << "    t=" << probes[i]
                  << "ns: " << verdict.toString() << "\n";
        Json row = Json::object();
        row["t_ns"] = Json(probes[i]);
        row["owned"] = Json(verdict.owned);
        row["board"] = Json(std::uint64_t{verdict.board});
        row["chain_len"] = Json(verdict.chain.size());
        probe_rows.push(std::move(row));
    }
    // The chain at the last probe must show the full handoff
    // history: acquire, release, acquire, release, acquire.
    const auto last = session.ownerAt(pa, t2);
    gate.check(last.chain.size() >= 5,
               "replay/chain shows the Protect/Reclaim handoff history");

    Json config = Json::object();
    config["boards"] = Json(2);
    config["frame"] = Json(std::uint64_t{pa});
    Json metrics = Json::object();
    metrics["probes"] = std::move(probe_rows);
    metrics["ownership_events"] = Json(session.events().size());
    metrics["chain_len"] = Json(last.chain.size());
    artifact.add("replay/pingpong", std::move(config),
                 std::move(metrics));
}

/**
 * Cross-check replay against live inspection on the contended run:
 * every Protect entry in a board's action table at end-of-run
 * quiescence is a frame that board owns exclusively — the replay of
 * the streamed trace must agree for each of them.
 */
std::size_t
crossCheckInspection(const core::VmpSystem &system,
                     const telemetry::ReplaySession &session,
                     bench::Gate &gate)
{
    const Json snapshot = telemetry::inspectSystem(system);
    const std::uint64_t page = system.memory().pageBytes();
    // Fold the complete trace into a final per-frame owner map (the
    // same acquire/release semantics ownerAt applies per probe, but
    // at frame granularity so the action tables' frame indices key
    // directly).
    std::map<std::uint64_t, std::uint32_t> owner;
    for (const auto &event : session.events()) {
        const std::uint64_t frame = event.addr / page;
        if (event.acquiresOwnership())
            owner[frame] = event.master;
        else if (event.releasesOwnership())
            owner.erase(frame);
    }
    std::size_t checked = 0;
    std::size_t wrong = 0;
    const Json &boards = snapshot.get("domains").at(0).get("boards");
    for (std::size_t b = 0; b < boards.size(); ++b) {
        const Json &entries =
            boards.at(b).get("action_table").get("entries");
        for (const Json &entry : entries.items()) {
            // actionEntryName renders Protect as "10-protect".
            if (entry.get("entry").asString().find("protect") ==
                std::string::npos)
                continue;
            const std::uint64_t frame = entry.get("frame").asUint();
            ++checked;
            const auto it = owner.find(frame);
            if (it == owner.end() || it->second != b)
                ++wrong;
        }
    }
    gate.check(checked > 0 && wrong == 0,
               "replay agrees with inspection for all " +
                   std::to_string(checked) + " Protect entries");
    return checked;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vmp;
    setInformEnabled(false);
    const auto opts = bench::parseBenchOptions("telemetry", argc, argv);
    bench::Artifact artifact("telemetry", opts);
    bench::Gate gate;

    bench::banner("Telemetry",
                  "streaming sink, live inspection, trace replay");

    // --- 1. Identity + streamed-vs-post-hoc equivalence -----------
    std::cout << "== Attached-sink identity and streamed-vs-post-hoc "
                 "equivalence ==\n";
    const auto untraced =
        runWorkload(Mode::Untraced, opts.seedBase, kIdentityRefs);
    std::ostringstream stream;
    std::ostringstream gauge_stream;
    SinkRun sink_run;
    const auto with_sink =
        runWorkload(Mode::TracedWithSink, opts.seedBase,
                    kIdentityRefs, &stream, &gauge_stream, &sink_run);
    gate.check(untraced == with_sink,
               "sink-attached run is simulation-identical to untraced");
    std::cout << "  untraced: " << untraced.result.toString() << "\n"
              << "  streamed: " << with_sink.result.toString()
              << "\n";

    const obs::EventTracer &tracer = *sink_run.system->tracer();
    const telemetry::StreamingSink &sink = *sink_run.sink;
    gate.check(tracer.recorded() > 0, "run recorded events");
    gate.check(tracer.droppedOldest() == 0,
               "zero ring overwrites at default ring sizes");
    gate.check(sink.droppedTotal() == 0,
               "zero sink drops at default staging bounds");
    gate.check(sink.eventsStreamed() == tracer.recorded(),
               "sink streamed every recorded event");

    const std::string streamed_text = stream.str();
    const Json streamed = Json::parse(streamed_text);
    const auto streamed_records = sortedRecords(streamed);
    std::ostringstream posthoc;
    obs::writeChromeTrace(tracer, posthoc);
    const auto posthoc_records =
        sortedRecords(Json::parse(posthoc.str()));
    gate.check(streamed_records == posthoc_records,
               "streamed output matches post-hoc exporter "
               "event-for-event (" +
                   std::to_string(streamed_records.size()) + " records)");

    // A mid-run cut must recover to a parseable prefix document.
    {
        const std::string cut =
            telemetry::StreamingSink::recoverTruncated(
                streamed_text.substr(0,
                                     streamed_text.size() * 2 / 3));
        const Json recovered = Json::parse(cut);
        gate.check(recovered.get("traceEvents").size() > 0 &&
                       recovered.get("traceEvents").size() <
                           streamed.get("traceEvents").size(),
                   "truncated stream recovers to a parseable prefix");
    }

    // Gauge side channel: one JSONL object per flush, carrying the
    // sink built-ins plus the live system gauges.
    std::size_t gauge_lines = 0;
    bool gauges_ok = true;
    {
        std::istringstream lines(gauge_stream.str());
        std::string line;
        while (std::getline(lines, line)) {
            if (line.empty())
                continue;
            ++gauge_lines;
            const Json sample = Json::parse(line);
            gauges_ok = gauges_ok && sample.contains("t_us") &&
                        sample.get("gauges").contains("sink") &&
                        sample.get("gauges").contains("bus");
        }
    }
    gate.check(gauge_lines > 0 && gauges_ok,
               "gauge snapshots parse and carry sink+system groups (" +
                   std::to_string(gauge_lines) + " samples)");

    Json equiv_cfg = Json::object();
    equiv_cfg["processors"] = Json(std::uint64_t{kCpus});
    equiv_cfg["refs_per_cpu"] = Json(kIdentityRefs);
    equiv_cfg["seed_base"] = Json(opts.seedBase);
    Json equiv_metrics = bench::runResultJson(with_sink.result);
    equiv_metrics["identical_untraced"] = Json(untraced == with_sink);
    equiv_metrics["records"] = Json(streamed_records.size());
    equiv_metrics["events_recorded"] = Json(tracer.recorded());
    equiv_metrics["ring_overwrites"] = Json(tracer.droppedOldest());
    equiv_metrics["sink_drops"] = Json(sink.droppedTotal());
    equiv_metrics["flushes"] = Json(sink.flushes());
    equiv_metrics["gauge_samples"] = Json(gauge_lines);
    equiv_metrics["stats"] = sink_run.system->statsJson();
    artifact.add("equivalence/atum2", std::move(equiv_cfg),
                 std::move(equiv_metrics));

    // --- 2. Live inspection + metricsSnapshot gauges --------------
    std::cout << "== Live inspection (end-of-run quiescence) ==\n";
    const Json snapshot =
        telemetry::inspectSystem(*sink_run.system);
    const Json &boards = snapshot.get("domains").at(0).get("boards");
    gate.check(boards.size() == kCpus &&
                   snapshot.get("t_ns").asUint() ==
                       sink_run.system->events().now(),
               "inspection snapshot covers every board at the current "
               "tick");
    const obs::GaugeSet gauges =
        telemetry::collectGauges(*sink_run.system);
    const std::string rendered = obs::metricsSnapshot(
        tracer, sink_run.system->missProfiler(), &gauges);
    gate.check(rendered.find("bus.utilization") != std::string::npos,
               "metricsSnapshot renders the live gauges");

    // --- 3. Wall-clock overhead -----------------------------------
    std::printf("== Attached-sink overhead (min of %d interleaved "
                "trials, %llu refs/cpu) ==\n",
                kOverheadTrials,
                static_cast<unsigned long long>(kOverheadRefs));
    const std::string overhead_stream_path =
        deriveSiblingPath(opts.jsonOut, ".overhead.stream.json");
    // Each trial runs traced then traced+sink back to back, so the
    // two halves of a pair see (nearly) the same host load; the gate
    // takes the best *pair*, which stays meaningful even when the
    // whole sequence runs on a loaded machine (a min over the two
    // columns separately could pair a quiet traced trial against a
    // noisy sinked one, or vice versa).
    double traced_best = 1e300;
    double sinked_best = 1e300;
    double pair_slowdown = 1e300;
    for (int trial = 0; trial < kOverheadTrials; ++trial) {
        const double traced_s =
            runWorkload(Mode::Traced, opts.seedBase, kOverheadRefs)
                .wallSeconds;
        std::ofstream os(overhead_stream_path);
        if (!os)
            fatal("bench_telemetry: cannot open ",
                  overhead_stream_path);
        const double sinked_s =
            runWorkload(Mode::TracedWithSink, opts.seedBase,
                        kOverheadRefs, &os)
                .wallSeconds;
        const double slowdown =
            traced_s == 0.0 ? 0.0 : sinked_s / traced_s - 1.0;
        if (slowdown < pair_slowdown) {
            pair_slowdown = slowdown;
            traced_best = traced_s;
            sinked_best = sinked_s;
        }
    }
    std::remove(overhead_stream_path.c_str());
    // 5% relative + 10 ms absolute slack: the absolute term absorbs
    // the irreducible file-I/O floor (~20 MB of stream) on fast runs.
    std::printf("  best pair: traced %.3fs, traced+sink %.3fs "
                "-> %+.1f%%\n",
                traced_best, sinked_best, pair_slowdown * 100.0);
    gate.check(sinked_best <= traced_best * 1.05 + 0.010,
               "attached-sink overhead within 5%");

    Json overhead_cfg = Json::object();
    overhead_cfg["refs_per_cpu"] = Json(kOverheadRefs);
    overhead_cfg["trials"] = Json(kOverheadTrials);
    Json overhead_metrics = Json::object();
    overhead_metrics["traced_wall_s"] = Json(traced_best);
    overhead_metrics["sink_wall_s"] = Json(sinked_best);
    overhead_metrics["slowdown"] = Json(pair_slowdown);
    artifact.add("overhead/atum2", std::move(overhead_cfg),
                 std::move(overhead_metrics));

    // --- 4. Replay ------------------------------------------------
    std::cout << "== Trace-driven ownership replay ==\n";
    replayPingPong(artifact, gate);

    const auto torture_session =
        telemetry::ReplaySession::fromText(streamed_text);
    const std::size_t cross_checked =
        crossCheckInspection(*sink_run.system, torture_session, gate);

    Json torture_cfg = Json::object();
    torture_cfg["refs_per_cpu"] = Json(kIdentityRefs);
    Json torture_metrics = Json::object();
    torture_metrics["protect_entries_checked"] = Json(cross_checked);
    torture_metrics["ownership_events"] =
        Json(torture_session.events().size());
    artifact.add("replay/torture-crosscheck",
                 std::move(torture_cfg), std::move(torture_metrics));

    // --- 5. Artifacts ---------------------------------------------
    if (opts.writeJson) {
        writeFile(deriveSiblingPath(opts.jsonOut, ".stream.json"),
                  streamed_text);
        writeFile(deriveSiblingPath(opts.jsonOut, ".gauges.jsonl"),
                  gauge_stream.str());
        writeFile(deriveSiblingPath(opts.jsonOut, ".inspect.json"),
                  snapshot.dump(2) + "\n");
    }

    artifact.note("acceptance in exit status: streamed==post-hoc "
                  "event-for-event, sink-attached bit-identity, <=5% "
                  "sink overhead, replay owner probes correct and "
                  "consistent with live inspection");
    artifact.write();

    return gate.exitCode();
}
