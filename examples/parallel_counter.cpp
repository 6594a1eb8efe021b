/**
 * @file
 * Parallel-counter example: three scripted processors increment one
 * shared counter under each of the Section 5.4 lock designs, proving
 * coherence end to end (the total is exact) and showing what each lock
 * costs in time and bus traffic. This is the "workform processing"
 * style shared-state workload the paper's software sections discuss.
 *
 *   $ ./examples/parallel_counter
 */

#include <iostream>

#include "core/system.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sync/locks.hh"
#include "trace/synthetic.hh"

int
main()
{
    using namespace vmp;
    setInformEnabled(false);

    constexpr std::uint32_t cpus = 3;
    constexpr std::uint32_t iterations = 30;

    std::cout << "Three processors, " << iterations
              << " lock/increment/unlock rounds each; expected total "
              << cpus * iterations << ".\n\n";

    TableWriter table("Lock flavours");
    table.columns({"Lock", "Final counter", "Elapsed (us)",
                   "Bus transactions", "Bus aborts"});

    for (const auto kind :
         {sync::LockKind::CachedTas, sync::LockKind::UncachedTas,
          sync::LockKind::Notify}) {
        sync::LockWorkload workload;
        workload.kind = kind;
        workload.iterations = iterations;
        workload.counterAddr = trace::kernelBase + 0x4000;
        workload.lockAddr = kind == sync::LockKind::CachedTas
            ? trace::kernelBase + 0x8000
            : 0x200; // reserved uncached word
        core::VmpConfig config;
        config.processors = cpus;
        config.cache =
            cache::CacheConfig::forSize(KiB(64), 256, 4, true);
        config.memBytes = MiB(8);
        core::VmpSystem system(config);

        const auto cpu_objs = system.runPrograms(
            std::vector<cpu::Program>(cpus,
                                      sync::lockWorker(workload)));

        Tick elapsed = 0;
        for (const auto &c : cpu_objs)
            elapsed = std::max(elapsed, c->elapsed());

        std::uint32_t final_value = 0;
        system.controller(0).readWord(
            1, workload.counterAddr, true,
            [&](std::uint32_t v) { final_value = v; });
        system.events().run();

        table.row()
            .cell(sync::lockKindName(kind))
            .cell(std::uint64_t{final_value})
            .cell(toUsec(elapsed), 0)
            .cell(system.root().bus.transactions().value())
            .cell(system.root().bus.aborts().value());
    }
    table.print(std::cout);

    std::cout << "Every flavour is exact — the ownership protocol "
                 "keeps the counter coherent —\nbut their bus "
                 "footprints differ exactly as Section 5.4 predicts.\n";
    return 0;
}
