/**
 * @file
 * Live-telemetry walkthrough: attach the streaming sink to a running
 * VMP system, pause at quiescent points to snapshot the machine's
 * hidden hardware state, and replay the streamed trace to answer an
 * ownership question —
 *
 *   - live_inspect.stream.json  : incrementally-valid Chrome-trace
 *     stream written *during* the run (cut it anywhere;
 *     StreamingSink::recoverTruncated repairs it),
 *   - live_inspect.gauges.jsonl : one rolled-up gauge snapshot per
 *     flush (bus utilization, FIFO depths, miss-phase EWMAs),
 *   - live_inspect.snapshot.json: cache tags, action tables, FIFO
 *     contents and controller state at end-of-run quiescence,
 *   - stdout: who owned the hottest contended frame at mid-run,
 *     reconstructed from the stream alone (what tools/vmp_replay does
 *     for any saved trace file).
 *
 *   $ ./examples/live_inspect
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/system.hh"
#include "obs/export.hh"
#include "sim/logging.hh"
#include "telemetry/inspect.hh"
#include "telemetry/replay.hh"
#include "telemetry/streaming_sink.hh"
#include "telemetry/system_gauges.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

int
main()
{
    using namespace vmp;
    setInformEnabled(false);

    core::VmpConfig config;
    config.processors = 2;
    config.cache = cache::CacheConfig::forSize(KiB(64), 256, 4, true);
    config.memBytes = MiB(8);
    core::VmpSystem system(config);
    obs::EventTracer &tracer = system.enableTracing();

    // The sink rides the tracer's sink seam: it sees every event at
    // record() time (before ring storage, so ring wrap loses nothing
    // downstream) and flushes line-oriented Chrome-trace JSON during
    // the run. The gauge side channel snapshots live system state at
    // every flush boundary.
    std::ofstream stream("live_inspect.stream.json");
    std::ofstream gauges("live_inspect.gauges.jsonl");
    if (!stream || !gauges)
        fatal("cannot open live_inspect output files");
    telemetry::StreamingSink sink(stream);
    sink.setGaugeStream(&gauges);
    telemetry::attachSystemGauges(sink, system);
    sink.attach(tracer, system.events());

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < config.processors; ++i) {
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = 20'000;
        workload.seed = 42 + i;
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }
    const auto result = system.runTraces(sources);
    sink.close();
    std::cout << "run: " << result.toString() << "\n";
    std::cout << "streamed " << sink.eventsStreamed() << " events in "
              << sink.flushes() << " flushes, " << sink.droppedTotal()
              << " dropped\n\n";

    // Live inspection at quiescence: the full hidden hardware state —
    // cache tag arrays, 2-bit action tables, interrupt-FIFO words —
    // as one JSON document.
    const Json snapshot = telemetry::inspectSystem(system);
    {
        std::ofstream os("live_inspect.snapshot.json");
        if (!os)
            fatal("cannot open live_inspect.snapshot.json");
        snapshot.write(os, 2);
        os << '\n';
    }
    std::cout << "snapshot: "
              << snapshot.get("domains").at(0).get("boards").size()
              << " boards at t=" << snapshot.get("t_ns").asUint()
              << "ns -> live_inspect.snapshot.json\n";

    // The rolled-up gauges also render inline with the trace totals.
    const obs::GaugeSet live = telemetry::collectGauges(system);
    std::cout << "\n"
              << obs::metricsSnapshot(tracer, system.missProfiler(),
                                      &live);

    // Replay the stream we just wrote: find the frame with the most
    // ownership transitions and ask who held it halfway through the
    // run — exactly what `vmp_replay live_inspect.stream.json
    // --frame 0x... --at-us T` answers for a saved trace.
    std::ifstream is("live_inspect.stream.json");
    const auto session = telemetry::ReplaySession::fromStream(is);
    std::uint64_t hot_frame = 0;
    std::size_t hot_count = 0;
    {
        std::uint64_t prev = ~std::uint64_t{0};
        std::size_t count = 0;
        auto sorted = session.events();
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.addr < b.addr;
                  });
        for (const auto &event : sorted) {
            count = event.addr == prev ? count + 1 : 1;
            prev = event.addr;
            if (count > hot_count) {
                hot_count = count;
                hot_frame = event.addr;
            }
        }
    }
    const Tick mid = system.events().now() / 2;
    const auto verdict = session.ownerAt(hot_frame, mid);
    std::cout << "\nreplay: hottest frame 0x" << std::hex << hot_frame
              << std::dec << " (" << hot_count
              << " ownership events); at t=" << mid
              << "ns: " << verdict.toString() << "\n";
    for (const auto &event : verdict.chain) {
        std::cout << "  " << event.toString() << "\n";
        if (&event - verdict.chain.data() >= 9) {
            std::cout << "  ...\n";
            break;
        }
    }
    return 0;
}
