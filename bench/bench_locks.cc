/**
 * @file
 * Regenerates the Section 5.4 synchronization study: "the
 * straightforward use of test-and-set locks on the same cache pages as
 * the data being modified could result in enormous consistency
 * overhead". Compares, for 2-4 contending processors:
 *
 *  - cached test-and-set with lock and data on the SAME cache page
 *    (the worst case the paper warns about);
 *  - cached test-and-set with the lock on its own page;
 *  - uncached test-and-set in non-cached global memory;
 *  - the notification lock built on the bus monitor (entry 11 +
 *    notify transaction).
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "core/system.hh"
#include "sim/stats.hh"
#include "sync/locks.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace vmp;

struct LockResult
{
    Tick elapsed = 0;
    std::uint64_t busTx = 0;
    std::uint64_t ownershipTx = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t notifies = 0;
    bool correct = false;
};

LockResult
runStudy(sync::LockKind kind, bool same_page, std::uint32_t cpus,
         std::uint32_t iters)
{
    sync::LockWorkload workload;
    workload.kind = kind;
    workload.iterations = iters;
    workload.counterAddr = trace::kernelBase + 0x4000;
    // The critical section updates the counter plus two more words of
    // protected data on the counter's cache page, so stealing that
    // page mid-critical-section costs the holder real retries.
    workload.extraWork = 2;
    workload.workBase = workload.counterAddr + 16;
    if (kind == sync::LockKind::CachedTas) {
        workload.lockAddr = same_page
            ? workload.counterAddr + 8 // same 256B cache page
            : trace::kernelBase + 0x8000;
    } else {
        workload.lockAddr = 0x100;
    }

    core::VmpConfig cfg;
    cfg.processors = cpus;
    cfg.cache = cache::CacheConfig{256, 4, 64, true};
    cfg.memBytes = MiB(8);
    core::VmpSystem system(cfg);
    const auto cpu_objs = system.runPrograms(
        std::vector<cpu::Program>(cpus, sync::lockWorker(workload)));

    LockResult result;
    for (const auto &c : cpu_objs)
        result.elapsed = std::max(result.elapsed, c->elapsed());
    std::uint32_t final_value = 0;
    system.controller(0).readWord(1, workload.counterAddr, true,
                                  [&](std::uint32_t v) {
                                      final_value = v;
                                  });
    system.events().run();
    result.correct = final_value == iters * cpus;
    result.busTx = system.root().bus.transactions().value();
    result.ownershipTx =
        system.root().bus.countOf(mem::TxType::ReadPrivate).value() +
        system.root().bus.countOf(mem::TxType::AssertOwnership).value();
    result.notifies = system.root().bus.countOf(mem::TxType::Notify).value();
    result.writeBacks =
        system.root().bus.countOf(mem::TxType::WriteBack).value();
    return result;
}

void
printStudy(bench::Artifact &artifact, std::uint32_t cpus,
           std::uint32_t iters)
{
    TableWriter table("Lock study: " + std::to_string(cpus) +
                      " CPUs x " + std::to_string(iters) +
                      " critical sections each");
    table.columns({"Lock", "Elapsed (us)", "us/crit-section",
                   "Bus tx", "Ownership tx", "Write-backs",
                   "Notifies", "Correct"});
    struct Case
    {
        const char *name;
        sync::LockKind kind;
        bool samePage;
    };
    const Case cases[] = {
        {"cached TAS, lock on data page", sync::LockKind::CachedTas,
         true},
        {"cached TAS, lock on own page", sync::LockKind::CachedTas,
         false},
        {"uncached TAS", sync::LockKind::UncachedTas, false},
        {"notify lock (bus monitor)", sync::LockKind::Notify, false},
    };
    for (const auto &c : cases) {
        const auto result = runStudy(c.kind, c.samePage, cpus, iters);
        table.row()
            .cell(c.name)
            .cell(toUsec(result.elapsed), 0)
            .cell(toUsec(result.elapsed) /
                      static_cast<double>(cpus * iters),
                  1)
            .cell(result.busTx)
            .cell(result.ownershipTx)
            .cell(result.writeBacks)
            .cell(result.notifies)
            .cell(result.correct ? "yes" : "NO");

        Json config = Json::object();
        config["lock"] = Json(c.name);
        config["same_page"] = Json(c.samePage);
        config["processors"] = Json(std::uint64_t{cpus});
        config["iterations"] = Json(std::uint64_t{iters});
        Json metrics = Json::object();
        metrics["elapsed_us"] = Json(toUsec(result.elapsed));
        metrics["us_per_critical_section"] =
            Json(toUsec(result.elapsed) /
                 static_cast<double>(cpus * iters));
        metrics["bus_transactions"] = Json(result.busTx);
        metrics["ownership_transactions"] = Json(result.ownershipTx);
        metrics["write_backs"] = Json(result.writeBacks);
        metrics["notifies"] = Json(result.notifies);
        metrics["correct"] = Json(result.correct);
        artifact.add(std::to_string(cpus) + "cpu/" +
                         std::string(c.name),
                     std::move(config), std::move(metrics));
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vmp;
    setInformEnabled(false);
    const auto opts = bench::parseBenchOptions("locks", argc, argv);
    bench::Artifact artifact("locks", opts);

    bench::banner("Section 5.4", "Consistency Overhead of "
                                 "Synchronization (lock comparison)");

    printStudy(artifact, 2, 40);
    printStudy(artifact, 4, 25);

    std::cout
        << "Expected shape (paper): test-and-set on the data's own "
           "cache page thrashes worst;\nnotification locks eliminate "
           "spin traffic entirely.\n";
    return 0;
}
