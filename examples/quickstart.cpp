/**
 * @file
 * Quickstart: build a two-processor VMP machine, run a synthetic
 * ATUM-like workload on each CPU, and read back the performance
 * statistics — miss ratio, normalized processor performance, bus
 * utilization and the consistency-protocol activity.
 *
 *   $ ./examples/quickstart
 */

#include <iostream>

#include "core/system.hh"
#include "sim/stats.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

int
main()
{
    using namespace vmp;

    // 1. Configure the machine: two processor boards, each with the
    //    prototype's 256 KiB 4-way cache of 256-byte pages, sharing
    //    8 MiB of memory over one VMEbus.
    core::VmpConfig config;
    config.processors = 2;
    config.cache = cache::CacheConfig::forSize(KiB(256), 256, 4, true);
    config.memBytes = MiB(8);

    core::VmpSystem system(config);

    // 2. Give each CPU a workload. The presets reproduce the locality
    //    structure of the paper's ATUM traces; here each CPU gets its
    //    own seed and address-space range, with the kernel image
    //    physically shared (so the ownership protocol has real work).
    auto workload0 = trace::workloadConfig("atum1");
    workload0.totalRefs = 200'000;
    auto workload1 = trace::workloadConfig("atum2");
    workload1.totalRefs = 200'000;
    workload1.asidBase = 10;

    trace::SyntheticGen gen0(workload0);
    trace::SyntheticGen gen1(workload1);

    // 3. Run to completion (event-driven; deterministic for a seed).
    const core::RunResult result = system.runTraces({&gen0, &gen1});

    // 4. Report.
    std::cout << "Run summary: " << result.toString() << "\n\n";

    TableWriter table("Per-processor detail");
    table.columns({"CPU", "Misses", "Ownership misses", "Retries",
                   "Write-backs", "Words serviced"});
    for (std::size_t cpu = 0; cpu < config.processors; ++cpu) {
        const auto &ctl = system.controller(cpu);
        table.row()
            .cell(std::uint64_t{cpu})
            .cell(ctl.misses().value())
            .cell(ctl.ownershipMisses().value())
            .cell(ctl.retries().value())
            .cell(ctl.writeBacks().value())
            .cell(ctl.wordsServiced().value());
    }
    table.print(std::cout);

    // Full statistics dump in gem5 style.
    StatGroup bus_stats("bus");
    system.root().bus.registerStats(bus_stats);
    bus_stats.dump(std::cout);
    return 0;
}
