/**
 * @file
 * Memory-tier acceptance bench: gates the far-memory backing tier
 * (src/backing) behind hard pass/fail checks and regenerates its
 * headline numbers.
 *
 *  1. Mirror identity — a fixed two-CPU paging probe run with the
 *     default (Mirror) tier must reproduce the pre-tier simulator's
 *     fingerprint bit for bit: elapsed ticks, fault/page-in/page-out
 *     counts, image-plane counters and total bus transactions.
 *  2. Eviction-stall reduction — the same memory-pressure sweep run
 *     sync (Mirror) vs async must cut the miss path's eviction stall
 *     by at least 40%: page-outs complete at arena-accept speed while
 *     the reclaim engine drains dirty frames in pipelined batches.
 *  3. Backend comparison — the async sweep across LocalRam /
 *     RemoteNode / Disk media.
 *  4. Budget controller — a hog and a small-footprint space under the
 *     grant arbiter: epochs must run and grants must adapt toward the
 *     faulting space.
 *
 * Gates report through bench::Gate: exit status 0 when every gate
 * passed, 1 otherwise, so CI can run the binary directly.
 */

#include <iostream>
#include <string>

#include "backing/budget.hh"
#include "backing/memory_tier.hh"
#include "bench/bench_util.hh"
#include "cache/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "proto/controller.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "vm/vm_system.hh"

namespace
{

using namespace vmp;

/** Bus-master id of the tier's drain DMA engine (clear of the CPUs). */
constexpr std::uint32_t kDmaMaster = 64;

/** Two-CPU paging rig (the bench_vm rig with a configurable tier). */
struct VmRig
{
    explicit VmRig(const vm::VmConfig &vm_cfg = {},
                   std::uint32_t page_bytes = 256)
        : memory(MiB(2), page_bytes), bus(events, memory),
          vm(events, memory, vm_cfg)
    {
        translator.bind(vm);
        // Async drains ride the bus model by default: page transfers
        // go through a DMA engine and contend with miss traffic, as
        // on the real machine. Mirror mode ignores the attachment.
        if (vm_cfg.tier.mode == backing::TierMode::Async)
            vm.tier().attachDma(bus, kDmaMaster);
        for (CpuId id = 0; id < 2; ++id) {
            caches.push_back(std::make_unique<cache::Cache>(
                cache::CacheConfig{page_bytes, 4, 64, true}));
            monitors.push_back(std::make_unique<monitor::BusMonitor>(
                id, MiB(2), page_bytes));
            controllers.push_back(
                std::make_unique<proto::CacheController>(
                    id, events, *caches[id], *monitors[id], bus,
                    translator));
            bus.attachWatcher(id, *monitors[id]);
            vm.attach(*controllers[id]);
            controllers[id]->setIrqService(proto::IrqService::Idle);
        }
    }

    /**
     * Write one word and run to completion. Steps the queue instead
     * of draining it: a started budget controller keeps a recurring
     * epoch event queued, so the queue never empties.
     */
    void
    write(std::size_t cpu, Asid asid, Addr va, std::uint32_t value)
    {
        bool done = false;
        controllers[cpu]->writeWord(asid, va, value, false,
                                    [&] { done = true; });
        while (!done) {
            if (!events.step())
                fatal("memtier bench: write did not complete");
        }
    }

    EventQueue events;
    mem::PhysMem memory;
    mem::VmeBus bus;
    vm::VmTranslator translator;
    vm::VmSystem vm;
    std::vector<std::unique_ptr<cache::Cache>> caches;
    std::vector<std::unique_ptr<monitor::BusMonitor>> monitors;
    std::vector<std::unique_ptr<proto::CacheController>> controllers;
};

/** Everything the mirror-identity gate compares. */
struct Fingerprint
{
    Tick elapsed = 0;
    std::uint64_t faults = 0;
    std::uint64_t pageIns = 0;
    std::uint64_t pageOuts = 0;
    std::uint64_t imageStores = 0;
    std::uint64_t imageFetches = 0;
    std::uint64_t pagesHeld = 0;
    std::uint64_t busTx = 0;
};

/**
 * The fixed probe behind the fingerprint: two CPUs sweep 640 user
 * pages twice (well past the ~508 usable 4K frames of 2 MiB), spaces
 * per CPU, thrashing the pageout daemon and the image plane.
 */
Fingerprint
runProbe(const vm::VmConfig &vm_cfg)
{
    VmRig rig(vm_cfg);
    for (std::uint32_t sweep = 0; sweep < 2; ++sweep) {
        for (std::uint32_t i = 0; i < 640; ++i) {
            const std::size_t cpu = i % 2;
            rig.write(cpu, static_cast<Asid>(1 + cpu),
                      vm::userBase +
                          static_cast<Addr>(i) * vm::vmPageBytes,
                      i + sweep);
        }
    }
    Fingerprint fp;
    fp.elapsed = rig.events.now();
    fp.faults = rig.vm.pageFaults().value();
    fp.pageIns = rig.vm.pageIns().value();
    fp.pageOuts = rig.vm.pageOuts().value();
    fp.imageStores = rig.vm.tier().images().stores().value();
    fp.imageFetches = rig.vm.tier().images().fetches().value();
    fp.pagesHeld = rig.vm.tier().images().pagesHeld();
    fp.busTx = rig.bus.transactions().value();
    return fp;
}

/** Pre-tier fingerprint of the probe, captured at the commit that
 *  introduced the tier (Mirror mode must reproduce it forever). */
constexpr Fingerprint kBaseline{
    1082521510, 1280, 1280, 776, 776, 640, 640, 27557};

/** One memory-pressure sweep: a single CPU writes @p pages distinct
 *  4K pages once, far past physical capacity. */
struct PressureResult
{
    Tick elapsed = 0;
    double stallNs = 0.0;
    std::uint64_t stalledPageIns = 0;
    std::uint64_t pageOuts = 0;
    std::uint64_t storeStalls = 0;
    std::uint64_t drainBatches = 0;
    std::uint64_t pagesDrained = 0;
    double storeStallNs = 0.0;
};

PressureResult
runPressure(const vm::VmConfig &vm_cfg, std::uint32_t pages)
{
    VmRig rig(vm_cfg);
    for (std::uint32_t i = 0; i < pages; ++i)
        rig.write(0, 1,
                  vm::userBase +
                      static_cast<Addr>(i) * vm::vmPageBytes,
                  i);
    // Let the reclaim engine finish its tail of drains, then flush
    // the residue parked below the dirty high-water mark so drained
    // pages account for every page-out.
    rig.events.run();
    if (auto *arena = rig.vm.tier().arena()) {
        while (arena->dirtyCount() > 0 ||
               rig.vm.tier().draining()) {
            rig.vm.tier().drainNow();
            rig.events.run();
        }
    }
    PressureResult r;
    r.elapsed = rig.events.now();
    r.stallNs = rig.vm.evictionStallNs();
    r.stalledPageIns = rig.vm.stalledPageIns().value();
    r.pageOuts = rig.vm.pageOuts().value();
    r.storeStalls = rig.vm.tier().storeStalls().value();
    r.drainBatches = rig.vm.tier().drainBatches().value();
    r.pagesDrained = rig.vm.tier().pagesDrained().value();
    r.storeStallNs = rig.vm.tier().storeStallNs();
    return r;
}

vm::VmConfig
asyncVmConfig(std::uint32_t arena_frames = 64)
{
    vm::VmConfig cfg;
    cfg.tier.mode = backing::TierMode::Async;
    cfg.tier.arenaFrames = arena_frames;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vmp;
    setInformEnabled(false);
    const auto opts = bench::parseBenchOptions("memtier", argc, argv);
    bench::Artifact artifact("memtier", opts);
    bench::Gate gate;

    bench::banner("Memory tier",
                  "Far-memory backing tier: mirror identity, async "
                  "eviction pipeline, backends, budget");

    // --- 1. mirror identity ------------------------------------------
    const auto mirror = runProbe(vm::VmConfig{});
    TableWriter identity("Mirror-mode fingerprint vs pre-tier "
                         "baseline (two-CPU 2x640-page probe)");
    identity.columns({"Quantity", "Baseline", "Mirror tier"});
    const auto idrow = [&](const char *name, std::uint64_t want,
                           std::uint64_t got) {
        identity.row().cell(name).cell(want).cell(got);
        return want == got;
    };
    bool identical = true;
    identical &= idrow("elapsed_ticks", kBaseline.elapsed,
                       mirror.elapsed);
    identical &= idrow("page_faults", kBaseline.faults, mirror.faults);
    identical &= idrow("page_ins", kBaseline.pageIns, mirror.pageIns);
    identical &= idrow("page_outs", kBaseline.pageOuts,
                       mirror.pageOuts);
    identical &= idrow("image_stores", kBaseline.imageStores,
                       mirror.imageStores);
    identical &= idrow("image_fetches", kBaseline.imageFetches,
                       mirror.imageFetches);
    identical &= idrow("pages_held", kBaseline.pagesHeld,
                       mirror.pagesHeld);
    identical &= idrow("bus_transactions", kBaseline.busTx,
                       mirror.busTx);
    identity.print(std::cout);
    gate.check(identical, "mirror mode reproduces the pre-tier "
                          "fingerprint bit for bit");
    {
        Json config = Json::object();
        config["mode"] = Json(std::string("mirror"));
        Json metrics = Json::object();
        metrics["elapsed_ticks"] =
            Json(std::uint64_t{mirror.elapsed});
        metrics["page_faults"] = Json(mirror.faults);
        metrics["page_outs"] = Json(mirror.pageOuts);
        metrics["image_stores"] = Json(mirror.imageStores);
        metrics["image_fetches"] = Json(mirror.imageFetches);
        metrics["bus_transactions"] = Json(mirror.busTx);
        metrics["identical"] = Json(identical);
        artifact.add("mirror_identity", std::move(config),
                     std::move(metrics));
    }

    // --- 2. eviction-stall reduction ---------------------------------
    // 1024 pages over ~508 usable frames: a 2x-capacity working set
    // whose evicted volume also runs ~8x through the 64-frame arena.
    constexpr std::uint32_t kPressurePages = 1024;
    const auto sync_run = runPressure(vm::VmConfig{}, kPressurePages);
    const auto async_run =
        runPressure(asyncVmConfig(), kPressurePages);
    const double reduction = sync_run.stallNs == 0.0
        ? 0.0
        : 1.0 - async_run.stallNs / sync_run.stallNs;

    TableWriter stall("Miss-path eviction stall, sync (mirror) vs "
                      "async tier (1024-page sweep, 2x capacity)");
    stall.columns({"Pipeline", "Stall (ms)", "Stalled page-ins",
                   "Page-outs", "Store stalls", "Drain batches"});
    stall.row()
        .cell("sync (mirror)")
        .cell(sync_run.stallNs / 1e6, 2)
        .cell(sync_run.stalledPageIns)
        .cell(sync_run.pageOuts)
        .cell(sync_run.storeStalls)
        .cell(sync_run.drainBatches);
    stall.row()
        .cell("async")
        .cell(async_run.stallNs / 1e6, 2)
        .cell(async_run.stalledPageIns)
        .cell(async_run.pageOuts)
        .cell(async_run.storeStalls)
        .cell(async_run.drainBatches);
    stall.print(std::cout);
    gate.check(reduction >= 0.40,
               "async pipeline cuts miss-path eviction stall by >= 40% (" +
                   bench::percent(reduction) + ")");
    gate.check(async_run.pagesDrained >= async_run.pageOuts &&
                   async_run.drainBatches > 0,
               "async reclaim engine drained every page-out in batches");
    for (const bool is_async : {false, true}) {
        const auto &r = is_async ? async_run : sync_run;
        Json config = Json::object();
        config["mode"] =
            Json(std::string(is_async ? "async" : "mirror"));
        config["pages"] = Json(std::uint64_t{kPressurePages});
        Json metrics = Json::object();
        metrics["elapsed_us"] = Json(toUsec(r.elapsed));
        metrics["eviction_stall_ns"] = Json(r.stallNs);
        metrics["stalled_page_ins"] = Json(r.stalledPageIns);
        metrics["page_outs"] = Json(r.pageOuts);
        metrics["store_stalls"] = Json(r.storeStalls);
        metrics["store_stall_ns"] = Json(r.storeStallNs);
        metrics["drain_batches"] = Json(r.drainBatches);
        metrics["pages_drained"] = Json(r.pagesDrained);
        if (is_async)
            metrics["stall_reduction"] = Json(reduction);
        artifact.add(std::string("pressure/") +
                         (is_async ? "async" : "sync"),
                     std::move(config), std::move(metrics));
    }

    // --- 3. backend comparison ---------------------------------------
    TableWriter backends("Async tier across backend media "
                         "(same 1024-page sweep)");
    backends.columns({"Backend", "Elapsed (ms)", "Stall (ms)",
                      "Store stalls", "Pages drained"});
    for (const auto kind :
         {backing::BackendKind::LocalRam,
          backing::BackendKind::RemoteNode,
          backing::BackendKind::Disk}) {
        auto cfg = asyncVmConfig();
        cfg.tier.defaultBackend = kind;
        const auto r = runPressure(cfg, kPressurePages);
        backends.row()
            .cell(backing::backendName(kind))
            .cell(toUsec(r.elapsed) / 1000.0, 2)
            .cell(r.stallNs / 1e6, 2)
            .cell(r.storeStalls)
            .cell(r.pagesDrained);
        Json config = Json::object();
        config["mode"] = Json(std::string("async"));
        config["backend"] =
            Json(std::string(backing::backendName(kind)));
        config["pages"] = Json(std::uint64_t{kPressurePages});
        Json metrics = Json::object();
        metrics["elapsed_us"] = Json(toUsec(r.elapsed));
        metrics["eviction_stall_ns"] = Json(r.stallNs);
        metrics["store_stalls"] = Json(r.storeStalls);
        metrics["pages_drained"] = Json(r.pagesDrained);
        artifact.add(std::string("backend/") +
                         backing::backendName(kind),
                     std::move(config), std::move(metrics));
    }
    backends.print(std::cout);
    std::cout << "(Page-ins of never-stored pages pay the backend "
                 "transfer in every mode, so faster media shorten\n"
                 "the demand path as well as the drain tail.)\n\n";

    // --- 4. budget controller ----------------------------------------
    // A hog space streams 600 pages while a small space re-touches 16:
    // under the controller the hog's sqrt-pressure share must grow.
    backing::BudgetConfig bc;
    bc.totalFrames = 508; // usable 4K frames of the 2 MiB rig
    bc.epochNs = usec(2000);
    std::uint64_t faults_without = 0;
    std::uint64_t faults_with = 0;
    std::uint64_t epochs = 0;
    std::uint64_t grant_changes = 0;
    std::uint32_t hog_grant = 0;
    std::uint32_t small_grant = 0;
    {
        VmRig rig(asyncVmConfig());
        for (std::uint32_t i = 0; i < 600; ++i) {
            rig.write(0, 1,
                      vm::userBase +
                          static_cast<Addr>(i) * vm::vmPageBytes,
                      i);
            rig.write(1, 9,
                      vm::userBase + static_cast<Addr>(i % 16) *
                          vm::vmPageBytes,
                      i);
        }
        rig.events.run();
        faults_without = rig.vm.pageFaults().value();
    }
    {
        VmRig rig(asyncVmConfig());
        backing::BudgetController budget(rig.events, bc);
        rig.vm.setBudgetController(&budget);
        budget.start();
        for (std::uint32_t i = 0; i < 600; ++i) {
            rig.write(0, 1,
                      vm::userBase +
                          static_cast<Addr>(i) * vm::vmPageBytes,
                      i);
            rig.write(1, 9,
                      vm::userBase + static_cast<Addr>(i % 16) *
                          vm::vmPageBytes,
                      i);
        }
        budget.stop();
        rig.events.run();
        faults_with = rig.vm.pageFaults().value();
        epochs = budget.epochs().value();
        grant_changes = budget.grantChanges().value();
        // Client 0 is the first space to fault (the hog, asid 1).
        if (budget.clientCount() == 2) {
            const bool hog_first = budget.clientName(0) == "asid1";
            hog_grant = budget.grantOf(hog_first ? 0 : 1);
            small_grant = budget.grantOf(hog_first ? 1 : 0);
        }
    }

    TableWriter budget_table("Budget controller (508-frame pool, "
                             "2 ms epochs, hog vs 16-page space)");
    budget_table.columns({"Run", "Faults", "Epochs", "Grant changes",
                          "Hog grant", "Small grant"});
    budget_table.row()
        .cell("uncontrolled")
        .cell(faults_without)
        .cell(std::uint64_t{0})
        .cell(std::uint64_t{0})
        .cell(std::uint64_t{0})
        .cell(std::uint64_t{0});
    budget_table.row()
        .cell("budget")
        .cell(faults_with)
        .cell(epochs)
        .cell(grant_changes)
        .cell(std::uint64_t{hog_grant})
        .cell(std::uint64_t{small_grant});
    budget_table.print(std::cout);
    gate.check(epochs > 0,
               "budget controller epochs ran during the sweep");
    gate.check(grant_changes > 0 && hog_grant > small_grant,
               "grants adapted toward the faulting space");
    {
        Json config = Json::object();
        config["total_frames"] =
            Json(std::uint64_t{bc.totalFrames});
        config["epoch_ns"] = Json(std::uint64_t{bc.epochNs});
        Json metrics = Json::object();
        metrics["faults_uncontrolled"] = Json(faults_without);
        metrics["faults_budget"] = Json(faults_with);
        metrics["epochs"] = Json(epochs);
        metrics["grant_changes"] = Json(grant_changes);
        metrics["hog_grant"] = Json(std::uint64_t{hog_grant});
        metrics["small_grant"] = Json(std::uint64_t{small_grant});
        artifact.add("budget/hog_vs_small", std::move(config),
                     std::move(metrics));
    }

    artifact.note("mirror fingerprint captured at the pre-tier "
                  "commit; any drift is a timing regression");
    artifact.note("gates: mirror identity, >=40% stall reduction, "
                  "full drain, budget epochs+adaptation");
    artifact.write();

    return gate.exitCode();
}
