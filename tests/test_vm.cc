/**
 * @file
 * Tests for the virtual-memory system: PTE codec, frame allocation,
 * backing store, page-table walks through the cache (including nested
 * misses), demand paging, the Section 3.4 translation-consistency
 * operations, reference-bit maintenance, and pageout with data
 * integrity across eviction/reload cycles.
 */

#include <gtest/gtest.h>

#include <memory>

#include "backing/page_store.hh"
#include "cache/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "proto/controller.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "vm/page_table.hh"
#include "vm/vm_system.hh"

namespace vmp::vm
{
namespace
{

constexpr std::uint32_t pageBytes = 256;
constexpr std::uint64_t memBytes = 1 << 20; // 256 vm frames

/** Fixture: two boards + VM system. */
struct VmFixture : public ::testing::Test
{
    VmFixture()
        : memory(memBytes, pageBytes), bus(events, memory),
          vm(events, memory, VmConfig{})
    {
        translator.bind(vm);
        // Each board behaves like an idle CPU: it services its bus
        // monitor whenever the interrupt line rises, so cross-CPU
        // ownership transfers resolve.
        for (CpuId id = 0; id < 2; ++id) {
            boards.push_back(std::make_unique<Board>(id, *this));
            vm.attach(boards[id]->controller);
            boards[id]->controller.setIrqService(proto::IrqService::Idle);
        }
    }

    struct Board
    {
        Board(CpuId id, VmFixture &fixture)
            : cache(cache::CacheConfig{pageBytes, 2, 16, true}),
              monitor(id, memBytes, pageBytes),
              controller(id, fixture.events, cache, monitor,
                         fixture.bus, fixture.translator)
        {
            fixture.bus.attachWatcher(id, monitor);
        }

        cache::Cache cache;
        monitor::BusMonitor monitor;
        proto::CacheController controller;
    };

    proto::CacheController &ctl(std::size_t i)
    {
        return boards[i]->controller;
    }

    std::uint32_t
    doRead(std::size_t cpu, Asid asid, Addr va, bool sup = false)
    {
        std::uint32_t value = 0;
        bool done = false;
        ctl(cpu).readWord(asid, va, sup, [&](std::uint32_t v) {
            value = v;
            done = true;
        });
        events.run();
        EXPECT_TRUE(done);
        return value;
    }

    void
    doWrite(std::size_t cpu, Asid asid, Addr va, std::uint32_t value,
            bool sup = false)
    {
        bool done = false;
        ctl(cpu).writeWord(asid, va, value, sup, [&] { done = true; });
        events.run();
        EXPECT_TRUE(done);
    }

    EventQueue events;
    mem::PhysMem memory;
    mem::VmeBus bus;
    VmTranslator translator;
    VmSystem vm;
    std::vector<std::unique_ptr<Board>> boards;
};

// ------------------------------------------------------------- codec

TEST(Pte, CodecRoundTrip)
{
    const Pte pte = Pte::make(0x1234, true, false, true);
    EXPECT_TRUE(pte.valid());
    EXPECT_EQ(pte.frame(), 0x1234u);
    EXPECT_TRUE(pte.userReadable());
    EXPECT_FALSE(pte.userWritable());
    EXPECT_TRUE(pte.supWritable());
    EXPECT_FALSE(pte.referenced());
    EXPECT_FALSE(pte.modified());

    Pte copy = pte;
    copy.setReferenced();
    copy.setModified();
    EXPECT_TRUE(copy.referenced());
    EXPECT_TRUE(copy.modified());
    EXPECT_EQ(copy.frame(), pte.frame());
    copy.clearReferenced();
    EXPECT_FALSE(copy.referenced());
}

TEST(Pte, SlotProtMapping)
{
    const Pte pte = Pte::make(1, true, true, false);
    const auto prot = pte.slotProt();
    EXPECT_TRUE(prot & cache::FlagUserReadable);
    EXPECT_TRUE(prot & cache::FlagUserWritable);
    EXPECT_FALSE(prot & cache::FlagSupWritable);
}

TEST(Pte, IndexHelpers)
{
    EXPECT_EQ(vpnOf(0x12345678), 0x12345678u / 4096);
    EXPECT_EQ(dirIndexOf(1024), 1u);
    EXPECT_EQ(pteIndexOf(1025), 1u);
}

// --------------------------------------------------------- allocator

TEST(FrameAllocator, AllocatesDistinctAndFrees)
{
    FrameAllocator alloc(16 * vmPageBytes, 2);
    EXPECT_EQ(alloc.totalFrames(), 16u);
    EXPECT_EQ(alloc.freeFrames(), 14u);
    const auto a = alloc.alloc();
    const auto b = alloc.alloc();
    ASSERT_TRUE(a && b);
    EXPECT_NE(*a, *b);
    EXPECT_GE(*a, 2u); // reserved frames never handed out
    alloc.free(*a);
    EXPECT_EQ(alloc.freeFrames(), 13u);
    EXPECT_THROW(alloc.free(99), PanicError);
    EXPECT_THROW(FrameAllocator(vmPageBytes, 1), FatalError);
}

TEST(FrameAllocator, ExhaustionReturnsNothing)
{
    FrameAllocator alloc(4 * vmPageBytes, 2);
    EXPECT_TRUE(alloc.alloc());
    EXPECT_TRUE(alloc.alloc());
    EXPECT_FALSE(alloc.alloc());
}

// ------------------------------------------------------ backing store

TEST(BackingStore, StoreFetchDrop)
{
    backing::PageStore store(usec(100));
    EXPECT_EQ(store.latency(), usec(100));
    std::vector<std::uint8_t> page(vmPageBytes, 0xaa);
    store.store(3, 7, page);
    const auto *got = store.fetch(3, 7);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ((*got)[0], 0xaa);
    EXPECT_EQ(store.fetch(3, 8), nullptr);
    store.dropSpace(3);
    EXPECT_EQ(store.fetch(3, 7), nullptr);
    EXPECT_THROW(store.store(1, 1, std::vector<std::uint8_t>(10)),
                 PanicError);
    // Counter exactness: one store, one successful fetch — misses and
    // the rejected store count nothing (regression for the old
    // fetch-by-value API and for tier batching double-counts).
    EXPECT_EQ(store.stores().value(), 1u);
    EXPECT_EQ(store.fetches().value(), 1u);
    EXPECT_FALSE(store.contains(3, 7));
}

TEST(VmTier, TierDiskLatencyTimesThePageIn)
{
    EventQueue events;
    mem::PhysMem memory(memBytes, pageBytes);
    VmConfig cfg;
    cfg.tier.diskLatencyNs = usec(50);
    VmSystem vm(events, memory, cfg);
    EXPECT_EQ(vm.tier().config().diskLatencyNs, usec(50));
    Tick done_at = 0;
    vm.tier().fetchPage(1, 3, 0,
                        [&](const std::vector<std::uint8_t> *) {
                            done_at = events.now();
                        });
    events.run();
    EXPECT_EQ(done_at, usec(50));
}

TEST(VmTier, TierPageBytesMustBeTheVmPage)
{
    EventQueue events;
    mem::PhysMem memory(memBytes, pageBytes);
    VmConfig cfg;
    cfg.tier.pageBytes = vmPageBytes / 2;
    EXPECT_THROW(VmSystem(events, memory, cfg), FatalError);
}

// ------------------------------------------------------ demand paging

TEST_F(VmFixture, DemandZeroFillPage)
{
    // First touch faults, pages in a zero page, and retries.
    EXPECT_EQ(doRead(0, 1, userBase + 0x100), 0u);
    EXPECT_EQ(vm.pageFaults().value(), 1u);
    EXPECT_EQ(vm.pageIns().value(), 1u);
    EXPECT_EQ(vm.residentPages().size(), 1u);
}

TEST_F(VmFixture, WriteReadBack)
{
    doWrite(0, 1, userBase + 0x200, 0xfeed);
    EXPECT_EQ(doRead(0, 1, userBase + 0x200), 0xfeedu);
    // Second page fault only for the new page.
    doWrite(0, 1, userBase + vmPageBytes, 1);
    EXPECT_EQ(vm.pageFaults().value(), 2u);
}

TEST_F(VmFixture, DistinctSpacesGetDistinctPages)
{
    doWrite(0, 1, userBase, 111);
    doWrite(1, 2, userBase, 222);
    EXPECT_EQ(doRead(0, 1, userBase), 111u);
    // cpu1 reads its own space's page.
    EXPECT_EQ(doRead(1, 2, userBase), 222u);
    EXPECT_EQ(vm.residentPages().size(), 2u);
}

TEST_F(VmFixture, NestedMissOnPageTablePage)
{
    // The PTE read during translation itself goes through the cache:
    // the first user access must produce at least two misses (the PTE
    // page and the data page).
    doRead(0, 1, userBase);
    EXPECT_GE(ctl(0).misses().value(), 2u);
}

TEST_F(VmFixture, ReferencedAndModifiedBitsMaintained)
{
    doRead(0, 1, userBase);
    const Addr pte_paddr = *vm.pteAddr(1, userBase);
    // PTE is cached (possibly dirty): read it coherently.
    const Pte after_read{
        doRead(0, kernelAsid, VmSystem::kvaOf(pte_paddr), true)};
    EXPECT_TRUE(after_read.valid());
    EXPECT_TRUE(after_read.referenced());
    EXPECT_FALSE(after_read.modified());

    doWrite(0, 1, userBase, 5);
    const Pte after_write{
        doRead(0, kernelAsid, VmSystem::kvaOf(pte_paddr), true)};
    EXPECT_TRUE(after_write.modified());
}

TEST_F(VmFixture, KernelWindowIsLinear)
{
    memory.writeWord(0x3000, 0x77);
    EXPECT_EQ(doRead(0, kernelAsid, VmSystem::kvaOf(0x3000), true),
              0x77u);
    EXPECT_EQ(vm.paddrOfKva(kernelBase + 0x1234), 0x1234u);
    EXPECT_TRUE(vm.isKernelAddr(kernelBase));
    EXPECT_FALSE(vm.isKernelAddr(kernelBase + memBytes));
    EXPECT_THROW(vm.paddrOfKva(0), PanicError);
}

TEST_F(VmFixture, DeviceRegionFaultIsFatal)
{
    EXPECT_THROW(doRead(0, 1, 0x1000), FatalError);
}

// -------------------------------------------------- pmap / Sec 3.4

TEST_F(VmFixture, ExplicitMapAndUnmap)
{
    const auto frame = vm.allocator().alloc();
    ASSERT_TRUE(frame);
    bool done = false;
    vm.mapPage(ctl(0), 1, userBase, *frame, true, true, true,
               [&] { done = true; });
    events.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(vm.mapOps().value(), 1u);

    doWrite(0, 1, userBase, 99);
    EXPECT_EQ(doRead(0, 1, userBase), 99u);

    std::optional<std::uint32_t> old;
    done = false;
    vm.unmapPage(ctl(0), 1, userBase, [&](auto f) {
        old = f;
        done = true;
    });
    events.run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(*old, *frame);

    // The unmap flushed the dirty cache copy back to memory.
    EXPECT_EQ(memory.readWord(static_cast<Addr>(*frame) * vmPageBytes),
              99u);
    // And no cache still holds the frame.
    EXPECT_EQ(ctl(0).frameInfo(static_cast<Addr>(*frame) *
                               vmPageBytes),
              nullptr);
}

TEST_F(VmFixture, RemapFlushesRemoteCaches)
{
    doWrite(0, 1, userBase, 42);
    const Addr pte_paddr = *vm.pteAddr(1, userBase);
    const Pte pte{doRead(0, kernelAsid, VmSystem::kvaOf(pte_paddr),
                         true)};
    const std::uint32_t old_frame = pte.frame();

    // cpu1 (same space, second processor) reads the page too.
    EXPECT_EQ(doRead(1, 1, userBase), 42u);

    // Remap the vaddr onto a fresh frame via cpu0; cpu1's cached copy
    // must be flushed by the assert-ownership storm.
    const auto new_frame = vm.allocator().alloc();
    ASSERT_TRUE(new_frame);
    memory.zeroInit(static_cast<Addr>(*new_frame) * vmPageBytes,
                    vmPageBytes);
    bool done = false;
    vm.mapPage(ctl(0), 1, userBase, *new_frame, true, true, true,
               [&] { done = true; });
    events.run();
    ASSERT_TRUE(done);
    // cpu1 idles, so it has already serviced the invalidations.
    EXPECT_FALSE(ctl(1).interruptPending());

    const Addr old_pa = static_cast<Addr>(old_frame) * vmPageBytes;
    EXPECT_EQ(ctl(1).frameInfo(old_pa), nullptr);
    // Reads now observe the new (zero) frame.
    EXPECT_EQ(doRead(1, 1, userBase), 0u);
    // The dirty data of the old frame reached memory before the remap.
    EXPECT_EQ(memory.readWord(old_pa), 42u);
}

// ----------------------------------------------------------- pageout

TEST_F(VmFixture, PageOutOneEvictsUnreferenced)
{
    doWrite(0, 1, userBase, 0xbeef);
    ASSERT_EQ(vm.residentPages().size(), 1u);

    // First attempt: the page is referenced, so the clock clears the
    // bit and does not evict; second attempt evicts.
    bool result = true;
    bool done = false;
    vm.pageOutOne(ctl(0), [&](bool evicted) {
        result = evicted;
        done = true;
    });
    events.run();
    ASSERT_TRUE(done);
    // (Either outcome is acceptable on the first call depending on
    // reference-bit state; drive until the page is gone.)
    int guard = 0;
    while (!vm.residentPages().empty() && guard++ < 4) {
        done = false;
        vm.pageOutOne(ctl(0), [&](bool) { done = true; });
        events.run();
        ASSERT_TRUE(done);
    }
    EXPECT_TRUE(vm.residentPages().empty());
    EXPECT_EQ(vm.pageOuts().value(), 1u);
    EXPECT_EQ(vm.tier().images().pagesHeld(), 1u);
}

TEST_F(VmFixture, DataSurvivesEvictionAndReload)
{
    doWrite(0, 1, userBase + 0x10, 0xabcd);
    // Evict (clock needs up to two passes for the referenced bit).
    int guard = 0;
    while (!vm.residentPages().empty() && guard++ < 4) {
        bool done = false;
        vm.pageOutOne(ctl(0), [&](bool) { done = true; });
        events.run();
        ASSERT_TRUE(done);
    }
    ASSERT_TRUE(vm.residentPages().empty());

    // Touching the page again faults it back in with its contents.
    EXPECT_EQ(doRead(0, 1, userBase + 0x10), 0xabcdu);
    EXPECT_EQ(vm.pageIns().value(), 2u);
    EXPECT_EQ(vm.tier().images().fetches().value(), 1u);
}

TEST_F(VmFixture, MemoryPressureTriggersPageout)
{
    // Touch more pages than physical memory can hold; the fault path
    // must page out old pages and every page must keep its contents.
    const std::uint32_t frames = vm.allocator().freeFrames();
    // Leave room for page-table pages; write well beyond capacity.
    const std::uint32_t pages = frames + 8;
    for (std::uint32_t i = 0; i < pages; ++i)
        doWrite(0, 1, userBase + static_cast<Addr>(i) * vmPageBytes,
                i + 1);
    EXPECT_GT(vm.pageOuts().value(), 0u);

    // Read everything back (faulting old pages in again).
    for (std::uint32_t i = 0; i < pages; ++i) {
        ASSERT_EQ(doRead(0, 1,
                         userBase + static_cast<Addr>(i) * vmPageBytes),
                  i + 1)
            << "page " << i;
    }
}

TEST_F(VmFixture, PageOutUntilTargetReachesTarget)
{
    for (std::uint32_t i = 0; i < 12; ++i)
        doWrite(0, 1, userBase + static_cast<Addr>(i) * vmPageBytes, i);
    // Artificially lower free count by allocating everything.
    std::vector<std::uint32_t> grabbed;
    while (auto f = vm.allocator().alloc())
        grabbed.push_back(*f);
    bool done = false;
    vm.pageOutUntilTarget(ctl(0), [&] { done = true; });
    events.run();
    ASSERT_TRUE(done);
    EXPECT_GE(vm.allocator().freeFrames() + 0u, 1u);
    for (const auto f : grabbed)
        vm.allocator().free(f);
}

TEST_F(VmFixture, PrivateHintPropagatesToFills)
{
    doWrite(0, 1, userBase, 1); // page in
    bool done = false;
    vm.setPrivateHint(ctl(0), 1, userBase, [&] { done = true; });
    events.run();
    ASSERT_TRUE(done);

    // Evict the page's cache frames so the next read misses, then
    // confirm the read fill is exclusive.
    const Addr pte_paddr = *vm.pteAddr(1, userBase);
    const Pte pte{doRead(0, kernelAsid, VmSystem::kvaOf(pte_paddr),
                         true)};
    ASSERT_TRUE(pte.privateHint());
    const Addr pa = static_cast<Addr>(pte.frame()) * vmPageBytes;
    bool released = false;
    ctl(0).assertOwnership(pa, [&] {
        ctl(0).flushFrame(pa, [&] {
            ctl(0).releaseProtection(pa, [&] { released = true; });
        });
    });
    events.run();
    ASSERT_TRUE(released);

    const auto hinted_before = ctl(0).hintedPrivateFills().value();
    EXPECT_EQ(doRead(0, 1, userBase), 1u);
    EXPECT_EQ(ctl(0).hintedPrivateFills().value(), hinted_before + 1);
    const auto *info = ctl(0).frameInfo(pa);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->state, proto::FrameState::Private);
}

TEST_F(VmFixture, DestroySpaceReleasesEverything)
{
    // Populate two spaces; destroy one; the other is untouched.
    for (std::uint32_t i = 0; i < 4; ++i)
        doWrite(0, 1, userBase + static_cast<Addr>(i) * vmPageBytes,
                i + 1);
    doWrite(1, 2, userBase, 77);
    const auto free_before = vm.allocator().freeFrames();

    bool done = false;
    vm.destroySpace(ctl(0), 1, [&] { done = true; });
    events.run();
    ASSERT_TRUE(done);

    // 4 data frames + 1 page-table frame come back.
    EXPECT_EQ(vm.allocator().freeFrames(), free_before + 5);
    for (const auto &page : vm.residentPages())
        EXPECT_NE(page.asid, 1);
    // The other space still works.
    EXPECT_EQ(doRead(1, 2, userBase), 77u);
    // A touch in the destroyed space faults in a fresh zero page.
    EXPECT_EQ(doRead(0, 1, userBase), 0u);
}

TEST_F(VmFixture, DestroySpaceFlushesDirtyPagesToNowhere)
{
    doWrite(0, 1, userBase, 0x1234);
    bool done = false;
    vm.destroySpace(ctl(0), 1, [&] { done = true; });
    events.run();
    ASSERT_TRUE(done);
    // The backing store holds nothing for the destroyed space.
    EXPECT_EQ(vm.tier().images().fetch(1, vpnOf(userBase)), nullptr);
    // No cache still owns the old frame (two-state invariant).
    EXPECT_EQ(ctl(0).frameInfo(0x0), nullptr);
}

} // namespace
} // namespace vmp::vm
