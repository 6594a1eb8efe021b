/**
 * @file
 * Measures the Section 3.4 virtual-address-translation consistency
 * machinery: the cost of a mapping change (read-private on the PTE's
 * cache page + assert-ownership storm over the mapped page), demand
 * paging throughput, and the pageout daemon's eviction rate — the
 * operations whose software implementation the paper argues the bus
 * monitor makes simple.
 */

#include <iostream>

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

struct VmRig
{
    explicit VmRig(std::uint32_t page_bytes)
        : pageBytes(page_bytes), memory(MiB(2), page_bytes),
          bus(events, memory), vm(events, memory, vm::VmConfig{})
    {
        translator.bind(vm);
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

    void
    write(std::size_t cpu, Asid asid, Addr va, std::uint32_t value)
    {
        bool done = false;
        controllers[cpu]->writeWord(asid, va, value, false,
                                    [&] { done = true; });
        events.run();
        if (!done)
            fatal("vm bench: write did not complete");
    }

    std::uint32_t pageBytes;
    EventQueue events;
    mem::PhysMem memory;
    mem::VmeBus bus;
    vm::VmTranslator translator;
    vm::VmSystem vm;
    std::vector<std::unique_ptr<cache::Cache>> caches;
    std::vector<std::unique_ptr<monitor::BusMonitor>> monitors;
    std::vector<std::unique_ptr<proto::CacheController>> controllers;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace vmp;
    setInformEnabled(false);
    const auto opts = bench::parseBenchOptions("vm", argc, argv);
    bench::Artifact artifact("vm", opts);

    bench::banner("Section 3.4",
                  "Virtual Address Translation Consistency costs");

    // --- remap cost vs cache page size -------------------------------
    TableWriter remap("Mapping-change cost (shared dirty page, two "
                      "caches holding it)");
    remap.columns({"Cache page", "Remap elapsed (us)", "Bus tx",
                   "Assert-ownership tx"});
    for (const std::uint32_t page : {128u, 256u, 512u}) {
        VmRig rig(page);
        const Addr va = vm::userBase;
        rig.write(0, 1, va, 42); // cpu0 owns dirty
        // cpu1 reads it too (shared afterwards).
        bool done = false;
        rig.controllers[1]->readWord(1, va, false,
                                     [&](std::uint32_t) {
                                         done = true;
                                     });
        rig.events.run();

        const auto tx_before = rig.bus.transactions().value();
        const auto ao_before =
            rig.bus.countOf(mem::TxType::AssertOwnership).value();
        const Tick start = rig.events.now();
        const auto frame = rig.vm.allocator().alloc();
        done = false;
        rig.vm.mapPage(*rig.controllers[0], 1, va, *frame, true, true,
                       true, [&] { done = true; });
        rig.events.run();
        if (!done)
            fatal("vm bench: remap did not complete");
        remap.row()
            .cell(std::uint64_t{page})
            .cell(toUsec(rig.events.now() - start), 1)
            .cell(rig.bus.transactions().value() - tx_before)
            .cell(rig.bus.countOf(mem::TxType::AssertOwnership)
                      .value() -
                  ao_before);

        Json config = Json::object();
        config["page_bytes"] = Json(std::uint64_t{page});
        Json metrics = Json::object();
        metrics["remap_elapsed_us"] =
            Json(toUsec(rig.events.now() - start));
        metrics["bus_transactions"] =
            Json(rig.bus.transactions().value() - tx_before);
        metrics["assert_ownership_tx"] =
            Json(rig.bus.countOf(mem::TxType::AssertOwnership)
                     .value() -
                 ao_before);
        artifact.add("remap/" + std::to_string(page) + "B",
                     std::move(config), std::move(metrics));
    }
    remap.print(std::cout);
    std::cout << "A 4K virtual page spans 4096/pageBytes cache "
                 "frames; each needs one assert-ownership.\n\n";

    // --- demand paging and pageout throughput ------------------------
    TableWriter paging("Demand paging under memory pressure (256B "
                       "cache pages, 2 MiB memory)");
    paging.columns({"Pages touched", "Faults", "Page-outs",
                    "Elapsed (ms)", "us per fault"});
    for (const std::uint32_t pages : {64u, 256u, 640u}) {
        VmRig rig(256);
        const Tick start = rig.events.now();
        for (std::uint32_t i = 0; i < pages; ++i)
            rig.write(0, 1,
                      vm::userBase +
                          static_cast<Addr>(i) * vm::vmPageBytes,
                      i);
        const double elapsed_us = toUsec(rig.events.now() - start);
        paging.row()
            .cell(std::uint64_t{pages})
            .cell(rig.vm.pageFaults().value())
            .cell(rig.vm.pageOuts().value())
            .cell(elapsed_us / 1000.0, 2)
            .cell(elapsed_us /
                      static_cast<double>(rig.vm.pageFaults().value()),
                  1);

        Json config = Json::object();
        config["page_bytes"] = Json(std::uint64_t{256});
        config["pages_touched"] = Json(std::uint64_t{pages});
        Json metrics = Json::object();
        metrics["page_faults"] = Json(rig.vm.pageFaults().value());
        metrics["page_outs"] = Json(rig.vm.pageOuts().value());
        metrics["elapsed_us"] = Json(elapsed_us);
        metrics["us_per_fault"] =
            Json(elapsed_us /
                 static_cast<double>(rig.vm.pageFaults().value()));
        artifact.add("paging/" + std::to_string(pages) + "pages",
                     std::move(config), std::move(metrics));
    }
    paging.print(std::cout);
    std::cout << "(2 MiB of memory holds ~500 4K pages; beyond that "
                 "the clock-algorithm pageout daemon runs,\nwith each "
                 "eviction performing the full Section 3.4 flush "
                 "before the disk write.)\n";
    return 0;
}
