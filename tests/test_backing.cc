/**
 * @file
 * Memory-tier tests: the bounded FrameArena (occupancy, FIFO reclaim,
 * drain-batch bookkeeping, re-dirty epochs), the backend cost models,
 * mirror-mode timing equivalence with the legacy flat store, the async
 * accept/drain pipeline (fast-path page-outs, exhaustion stalls,
 * double page-out of one page, dropSpace racing in-flight drains), the
 * stream prefetcher (detection, hits, cancellation on context switch),
 * the budget controller (sqrt-pressure grants, deterministic rounding,
 * shrink-below-occupancy, epoch scheduling), the NVRAM-shadow frame
 * checkpointer, and pages_lost == 0 recovery on the flat and
 * hierarchical machines with checkpoints enabled.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backing/backend.hh"
#include "backing/budget.hh"
#include "backing/checkpoint.hh"
#include "backing/frame_arena.hh"
#include "backing/memory_tier.hh"
#include "backing/page_store.hh"
#include "core/hier_system.hh"
#include "core/system.hh"
#include "mem/bus_types.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "sim/event.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace vmp::backing
{
namespace
{

constexpr std::uint32_t kPage = 256;

std::vector<std::uint8_t>
page(std::uint8_t fill, std::uint32_t bytes = kPage)
{
    return std::vector<std::uint8_t>(bytes, fill);
}

// ------------------------------------------------------------- arena

TEST(FrameArena, InsertLookupReleaseOccupancy)
{
    FrameArena arena(4, kPage);
    EXPECT_EQ(arena.capacity(), 4u);
    EXPECT_EQ(arena.used(), 0u);
    EXPECT_TRUE(arena.hasFree());

    const auto s0 = arena.insert(1, 10, page(0xAA), true);
    const auto s1 = arena.insert(1, 11, page(0xBB), false);
    EXPECT_EQ(arena.used(), 2u);
    EXPECT_EQ(arena.dirtyCount(), 1u);
    EXPECT_EQ(arena.cleanCount(), 1u);
    EXPECT_EQ(arena.peakUsed(), 2u);

    ASSERT_TRUE(arena.lookup(1, 10).has_value());
    EXPECT_EQ(*arena.lookup(1, 10), s0);
    EXPECT_FALSE(arena.lookup(1, 12).has_value());
    EXPECT_FALSE(arena.lookup(2, 10).has_value());

    EXPECT_EQ(arena.frame(s0).data, page(0xAA));
    EXPECT_TRUE(arena.frame(s0).dirty);
    EXPECT_FALSE(arena.frame(s1).dirty);

    arena.release(s0);
    EXPECT_EQ(arena.used(), 1u);
    EXPECT_EQ(arena.dirtyCount(), 0u);
    EXPECT_FALSE(arena.lookup(1, 10).has_value());
    // Peak is a high-water mark; release must not lower it.
    EXPECT_EQ(arena.peakUsed(), 2u);
}

TEST(FrameArena, ReclaimOldestCleanIsFifo)
{
    FrameArena arena(4, kPage);
    const auto s0 = arena.insert(1, 0, page(0), false);
    const auto s1 = arena.insert(1, 1, page(1), false);
    arena.insert(1, 2, page(2), true); // dirty: not reclaimable

    const auto first = arena.reclaimOldestClean();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, s0);
    const auto second = arena.reclaimOldestClean();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, s1);
    // Only the dirty frame is left: nothing clean to reclaim.
    EXPECT_FALSE(arena.reclaimOldestClean().has_value());
    EXPECT_EQ(arena.used(), 1u);
}

TEST(FrameArena, TakeDirtyBatchLeavesFramesDirtyUntilCleaned)
{
    FrameArena arena(8, kPage);
    for (std::uint64_t v = 0; v < 5; ++v)
        arena.insert(1, v, page(static_cast<std::uint8_t>(v)), true);
    EXPECT_EQ(arena.drainQueueDepth(), 5u);

    const auto batch = arena.takeDirtyBatch(3);
    ASSERT_EQ(batch.size(), 3u);
    // Oldest first, and the popped frames stay dirty (their data is
    // still the only copy) — they just left the drain queue.
    EXPECT_EQ(arena.frame(batch[0]).vpn, 0u);
    EXPECT_EQ(arena.frame(batch[2]).vpn, 2u);
    EXPECT_TRUE(arena.frame(batch[0]).dirty);
    EXPECT_EQ(arena.dirtyCount(), 5u);
    EXPECT_EQ(arena.drainQueueDepth(), 2u);

    arena.markClean(batch[0]);
    EXPECT_EQ(arena.dirtyCount(), 4u);
    EXPECT_EQ(arena.cleanCount(), 1u);
}

TEST(FrameArena, OverwriteBumpsDirtyEpochAndRequeues)
{
    FrameArena arena(4, kPage);
    const auto slot = arena.insert(1, 7, page(0x11), true);
    const auto epoch0 = arena.frame(slot).dirtyEpoch;

    // A drain batch takes the frame off the queue...
    const auto batch = arena.takeDirtyBatch(8);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(arena.drainQueueDepth(), 0u);

    // ...and a newer page-out lands while it is in flight.
    arena.overwrite(slot, page(0x22));
    EXPECT_GT(arena.frame(slot).dirtyEpoch, epoch0);
    EXPECT_TRUE(arena.frame(slot).dirty);
    // Re-queued: the next batch must pick up the fresh image.
    EXPECT_EQ(arena.drainQueueDepth(), 1u);
    EXPECT_EQ(arena.frame(slot).data, page(0x22));
}

// ----------------------------------------------------- backend model

TEST(BackendModel, PerKindTransferCosts)
{
    const Tick disk = usec(500);
    const auto ram =
        BackendModel::forKind(BackendKind::LocalRam, disk);
    const auto remote =
        BackendModel::forKind(BackendKind::RemoteNode, disk);
    const auto flat = BackendModel::forKind(BackendKind::Disk, disk);

    EXPECT_EQ(ram.transferNs(4096), usec(1) + 1024);
    EXPECT_EQ(ram.streamNs(4096), 1024u);
    EXPECT_EQ(remote.transferNs(4096), usec(3) + usec(5) + 4096);
    EXPECT_EQ(remote.streamNs(4096), 4096u);
    // The flat disk folds bandwidth into the legacy fixed stamp.
    EXPECT_EQ(flat.transferNs(4096), disk);
    EXPECT_EQ(flat.streamNs(4096), 0u);
}

// ----------------------------------------------------- mirror timing

TierConfig
asyncConfig(std::uint32_t frames = 8, std::uint32_t high_water = 100)
{
    TierConfig cfg;
    cfg.mode = TierMode::Async;
    cfg.pageBytes = kPage;
    cfg.arenaFrames = frames;
    // Default to manual drains (drainNow) so tests control timing.
    cfg.dirtyHighWater = high_water;
    return cfg;
}

TEST(MemoryTier, MirrorModeKeepsFlatStoreTiming)
{
    EventQueue events;
    TierConfig cfg;
    cfg.pageBytes = kPage;
    cfg.diskLatencyNs = usec(500);
    MemoryTier tier(events, cfg);
    EXPECT_EQ(tier.arena(), nullptr);

    Tick store_done = 0;
    tier.storePage(3, 9, 0, page(0x5A), [&] {
        store_done = events.now();
    });
    events.run();
    // One flat-latency stamp, image durable immediately after.
    EXPECT_EQ(store_done, usec(500));
    EXPECT_EQ(tier.images().pagesHeld(), 1u);

    Tick fetch_done = 0;
    bool present = false;
    tier.fetchPage(3, 9, 0,
                   [&](const std::vector<std::uint8_t> *image) {
                       present = image != nullptr &&
                           *image == page(0x5A);
                       fetch_done = events.now();
                   });
    events.run();
    EXPECT_TRUE(present);
    EXPECT_EQ(fetch_done, usec(500) + usec(500));
    EXPECT_EQ(tier.images().stores().value(), 1u);
    EXPECT_EQ(tier.images().fetches().value(), 1u);
}

// ------------------------------------------------------- async store

TEST(MemoryTier, AsyncPageOutCompletesAtAcceptSpeed)
{
    EventQueue events;
    MemoryTier tier(events, asyncConfig());

    Tick store_done = 0;
    tier.storePage(3, 9, 0, page(0x77), [&] {
        store_done = events.now();
    });
    events.run();
    // The requester unblocked at DMA-accept speed, two orders of
    // magnitude before the disk write-back would have.
    EXPECT_EQ(store_done, usec(2));
    EXPECT_EQ(tier.storesAccepted().value(), 1u);
    EXPECT_EQ(tier.storeStalls().value(), 0u);
    // Not durable yet — the image only reaches the plane on drain.
    EXPECT_EQ(tier.images().pagesHeld(), 0u);

    tier.drainNow();
    events.run();
    EXPECT_EQ(tier.pagesDrained().value(), 1u);
    EXPECT_EQ(tier.images().pagesHeld(), 1u);
    EXPECT_FALSE(tier.draining());

    // The arena still caches the (now clean) page: a fetch is an
    // arena hit served at node speed, not a backend access.
    Tick fetch_done = 0;
    bool ok = false;
    tier.fetchPage(3, 9, 0,
                   [&](const std::vector<std::uint8_t> *image) {
                       ok = image != nullptr && *image == page(0x77);
                       fetch_done = events.now();
                   });
    const Tick t0 = events.now();
    events.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(fetch_done - t0, usec(2));
    EXPECT_EQ(tier.arenaHits().value(), 1u);
    EXPECT_EQ(tier.backendFetches().value(), 0u);
}

TEST(MemoryTier, DrainBatchIsPipelined)
{
    EventQueue events;
    auto cfg = asyncConfig(16);
    cfg.reclaimBatch = 8;
    MemoryTier tier(events, cfg);

    for (std::uint64_t v = 0; v < 8; ++v)
        tier.storePage(1, v, 0,
                       page(static_cast<std::uint8_t>(v)), [] {});
    events.run();
    ASSERT_EQ(tier.storesAccepted().value(), 8u);

    const Tick t0 = events.now();
    tier.drainNow();
    events.run();
    // Disk backend: first page pays the full flat stamp, the seven
    // follow-ups stream behind it at the pipeline interval — not
    // 8 x 500us serially.
    EXPECT_EQ(events.now() - t0, usec(500) + 7 * usec(20));
    EXPECT_EQ(tier.drainBatches().value(), 1u);
    EXPECT_EQ(tier.pagesDrained().value(), 8u);
    EXPECT_EQ(tier.images().pagesHeld(), 8u);
}

TEST(MemoryTier, ExhaustedArenaParksStoresUntilDrainFrees)
{
    EventQueue events;
    auto cfg = asyncConfig(4);
    cfg.reclaimBatch = 4;
    MemoryTier tier(events, cfg);

    std::uint64_t completed = 0;
    for (std::uint64_t v = 0; v < 6; ++v)
        tier.storePage(1, v, 0,
                       page(static_cast<std::uint8_t>(v)),
                       [&] { ++completed; });
    events.run();

    // Four filled the arena; two parked until the stall-triggered
    // drain freed capacity; everything completed in the end.
    EXPECT_EQ(completed, 6u);
    EXPECT_EQ(tier.storesAccepted().value(), 6u);
    EXPECT_EQ(tier.storeStalls().value(), 2u);
    EXPECT_GT(tier.storeStallNs(), 0.0);
    // The parked pages landed by evicting drained (clean) frames.
    EXPECT_EQ(tier.cleanEvictions().value(), 2u);
    // Follow-up batches picked up the late arrivals too.
    EXPECT_EQ(tier.pagesDrained().value(), 6u);
    EXPECT_EQ(tier.images().pagesHeld(), 6u);
}

TEST(MemoryTier, DoublePageOutOfOnePageKeepsNewestImage)
{
    EventQueue events;
    MemoryTier tier(events, asyncConfig());

    tier.storePage(5, 42, 0, page(0x01), [] {});
    events.run();
    // First image is mid-drain when the page is evicted again.
    tier.drainNow();
    ASSERT_TRUE(tier.draining());
    tier.storePage(5, 42, 0, page(0x02), [] {});
    events.run();

    // Both accepts hit the same arena slot; the in-flight drain wrote
    // the old image but must not have marked the re-dirtied frame
    // clean — the follow-up batch drained the newer image over it.
    EXPECT_EQ(tier.storesAccepted().value(), 2u);
    EXPECT_EQ(tier.pagesDrained().value(), 2u);
    EXPECT_EQ(tier.images().pagesHeld(), 1u);
    const auto *image = tier.images().fetch(5, 42);
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(*image, page(0x02));

    const auto slot = tier.arena()->lookup(5, 42);
    ASSERT_TRUE(slot.has_value());
    EXPECT_FALSE(tier.arena()->frame(*slot).dirty);
}

TEST(MemoryTier, DropSpaceCancelsInFlightDrains)
{
    EventQueue events;
    MemoryTier tier(events, asyncConfig());

    tier.storePage(9, 0, 0, page(0xAA), [] {});
    tier.storePage(9, 1, 0, page(0xBB), [] {});
    tier.storePage(2, 0, 0, page(0xCC), [] {});
    events.run();
    tier.drainNow();
    ASSERT_TRUE(tier.draining());
    // The space dies while its write-backs are on the wire.
    tier.dropSpace(9);
    events.run();

    // The stale drains completed without resurrecting dropped images;
    // the survivor space drained normally.
    EXPECT_FALSE(tier.images().contains(9, 0));
    EXPECT_FALSE(tier.images().contains(9, 1));
    EXPECT_TRUE(tier.images().contains(2, 0));
    EXPECT_EQ(tier.pagesDrained().value(), 1u);
    EXPECT_EQ(tier.arena()->used(), 1u);
    EXPECT_TRUE(tier.arena()->lookup(2, 0).has_value());
}

TEST(MemoryTier, DropSpaceUnblocksParkedStores)
{
    EventQueue events;
    auto cfg = asyncConfig(2);
    cfg.reclaimBatch = 2;
    MemoryTier tier(events, cfg);

    std::uint64_t completed = 0;
    for (std::uint64_t v = 0; v < 4; ++v)
        tier.storePage(5, v, 0,
                       page(static_cast<std::uint8_t>(v)),
                       [&] { ++completed; });
    // Drop the space between the accepts (2us) and the first drain
    // completion (500us): two stores are parked at that point.
    events.scheduleIn(usec(10), [&] { tier.dropSpace(5); },
                      "test-drop");
    events.run();

    // The parked requesters unblocked (accept-and-forget) instead of
    // waiting forever on a space that no longer exists.
    EXPECT_EQ(completed, 4u);
    EXPECT_EQ(tier.storeStalls().value(), 2u);
    EXPECT_EQ(tier.pendingStores(), 0u);
    EXPECT_EQ(tier.arena()->used(), 0u);
    EXPECT_EQ(tier.images().pagesHeld(), 0u);
}

// --------------------------------------------------------- prefetch

TierConfig
prefetchConfig()
{
    auto cfg = asyncConfig();
    cfg.prefetchDepth = 2;
    cfg.prefetchMinStreak = 2;
    return cfg;
}

TEST(MemoryTier, SequentialStreamPrefetchesAndHits)
{
    EventQueue events;
    MemoryTier tier(events, prefetchConfig());
    for (std::uint64_t v = 0; v < 6; ++v)
        tier.images().store(7, v,
                            page(static_cast<std::uint8_t>(v)));

    auto fetch = [&](std::uint64_t vpn) {
        bool ok = false;
        tier.fetchPage(7, vpn, 0,
                       [&](const std::vector<std::uint8_t> *image) {
                           ok = image != nullptr &&
                               *image ==
                                   page(static_cast<std::uint8_t>(
                                       vpn));
                       });
        events.run();
        EXPECT_TRUE(ok) << "vpn " << vpn;
    };

    fetch(0); // streak 1: no prefetch yet
    EXPECT_EQ(tier.prefetchesIssued().value(), 0u);
    fetch(1); // streak 2: vpn 2 and 3 prefetched
    EXPECT_EQ(tier.prefetchesIssued().value(), 2u);
    ASSERT_TRUE(tier.arena()->lookup(7, 2).has_value());
    EXPECT_TRUE(
        tier.arena()->frame(*tier.arena()->lookup(7, 2)).prefetched);

    fetch(2); // served by the prefetched frame
    EXPECT_EQ(tier.prefetchHits().value(), 1u);
    EXPECT_EQ(tier.backendFetches().value(), 2u);
    // The demand hit claims the frame for good.
    EXPECT_FALSE(
        tier.arena()->frame(*tier.arena()->lookup(7, 2)).prefetched);
}

TEST(MemoryTier, ContextSwitchCancelsInFlightPrefetches)
{
    EventQueue events;
    MemoryTier tier(events, prefetchConfig());
    for (std::uint64_t v = 0; v < 6; ++v)
        tier.images().store(7, v,
                            page(static_cast<std::uint8_t>(v)));

    tier.fetchPage(7, 0, 0,
                   [](const std::vector<std::uint8_t> *) {});
    events.run();
    // The second demand fetch trusts the stream and issues prefetches
    // of vpn 2 and 3 — then the CPU context-switches before those
    // transfers land: the stale installs must drop, not pollute the
    // arena.
    tier.fetchPage(7, 1, 0,
                   [](const std::vector<std::uint8_t> *) {});
    ASSERT_EQ(tier.prefetchesIssued().value(), 2u);
    tier.cancelPrefetch(7);
    events.run();

    EXPECT_EQ(tier.prefetchesCancelled().value(), 2u);
    EXPECT_FALSE(tier.arena()->lookup(7, 2).has_value());
    EXPECT_FALSE(tier.arena()->lookup(7, 3).has_value());
}

// ----------------------------------------------------------- budget

TEST(Budget, EvenSplitOnEntryAndSqrtPressureRebalance)
{
    EventQueue events;
    BudgetConfig cfg;
    cfg.totalFrames = 32;
    cfg.minGrant = 4;
    BudgetController budget(events, cfg);

    const auto a = budget.addClient("asid1");
    const auto b = budget.addClient("asid2");
    EXPECT_EQ(budget.grantOf(a), 16u);
    EXPECT_EQ(budget.grantOf(b), 16u);

    for (int i = 0; i < 100; ++i)
        budget.noteFault(a);
    budget.rebalance();

    // Floor of 4 each off the top; the 24-frame pool splits by
    // sqrt(101) : sqrt(1) with largest-remainder rounding -> 22 : 2.
    EXPECT_EQ(budget.grantOf(a), 26u);
    EXPECT_EQ(budget.grantOf(b), 6u);
    EXPECT_EQ(budget.grantOf(a) + budget.grantOf(b),
              cfg.totalFrames);
    EXPECT_EQ(budget.grantChanges().value(), 2u);

    // Pressure resets each epoch: a quiet follow-up epoch re-levels.
    budget.rebalance();
    EXPECT_EQ(budget.grantOf(a), 16u);
    EXPECT_EQ(budget.grantOf(b), 16u);
}

TEST(Budget, RebalanceIsDeterministic)
{
    auto run = [] {
        EventQueue events;
        BudgetConfig cfg;
        cfg.totalFrames = 37; // odd: exercises remainder handling
        cfg.minGrant = 2;
        BudgetController budget(events, cfg);
        for (int c = 0; c < 3; ++c)
            budget.addClient("asid" + std::to_string(c + 1));
        // Equal pressure everywhere: remainders tie, broken by id.
        for (std::uint32_t c = 0; c < 3; ++c)
            for (int i = 0; i < 9; ++i)
                budget.noteFault(c);
        budget.rebalance();
        return std::vector<std::uint32_t>{budget.grantOf(0),
                                          budget.grantOf(1),
                                          budget.grantOf(2)};
    };
    const auto first = run();
    EXPECT_EQ(first, run());
    EXPECT_EQ(first[0] + first[1] + first[2], 37u);
    // Ties broke toward lower client ids.
    EXPECT_GE(first[0], first[1]);
    EXPECT_GE(first[1], first[2]);
}

TEST(Budget, ShrinkHookFiresWhenGrantFallsBelowOccupancy)
{
    EventQueue events;
    BudgetConfig cfg;
    cfg.totalFrames = 32;
    cfg.minGrant = 4;
    BudgetController budget(events, cfg);
    const auto a = budget.addClient("hog");
    const auto b = budget.addClient("idle");

    budget.noteUse(b, 16); // occupies its full even share
    EXPECT_FALSE(budget.overGrant(b));

    std::uint32_t shrunk_client = 99;
    std::uint32_t shrunk_grant = 0;
    budget.setShrinkHook([&](std::uint32_t client,
                             std::uint32_t grant) {
        shrunk_client = client;
        shrunk_grant = grant;
    });
    for (int i = 0; i < 200; ++i)
        budget.noteFault(a);
    budget.rebalance();

    // The idle-but-fat client's grant fell below its 16 resident
    // pages: the hook tells it to shed.
    EXPECT_EQ(budget.shrinks().value(), 1u);
    EXPECT_EQ(shrunk_client, b);
    EXPECT_LT(shrunk_grant, 16u);
    EXPECT_TRUE(budget.overGrant(b));
    EXPECT_EQ(budget.usedOf(b), 16u);
}

TEST(Budget, EpochTimerRunsUntilStopped)
{
    EventQueue events;
    BudgetConfig cfg;
    cfg.totalFrames = 8;
    cfg.epochNs = usec(10);
    BudgetController budget(events, cfg);
    budget.addClient("only");

    budget.start();
    EXPECT_TRUE(budget.running());
    events.run(usec(95));
    EXPECT_EQ(budget.epochs().value(), 9u);

    budget.stop();
    events.run();
    // The already-queued tick observes running_ == false and stops
    // rescheduling: no further epochs.
    EXPECT_EQ(budget.epochs().value(), 9u);
}

// ------------------------------------------------- frame checkpoints

TEST(Checkpoint, SnapshotsOwnershipTransfersAndWriteBacks)
{
    EventQueue events;
    mem::PhysMem memory(MiB(1), kPage);
    mem::VmeBus bus(events, memory);
    PageStore shadow(0, kPage);
    FrameCheckpointer checkpointer(memory, shadow, 0xFE);
    checkpointer.install(bus);

    const Addr frame3 = 3 * kPage;
    const auto before = page(0xD1);
    memory.writeBlock(frame3, before.data(), kPage);

    auto issue = [&](mem::BusTransaction tx) {
        bool done = false;
        bus.request(tx, [&](const mem::TxResult &) { done = true; });
        events.run();
        ASSERT_TRUE(done);
    };
    auto shortTx = [](mem::TxType type, Addr paddr) {
        mem::BusTransaction tx;
        tx.type = type;
        tx.requester = 0;
        tx.paddr = paddr;
        return tx;
    };

    // Ownership handoff: memory is authoritative -> snapshot.
    issue(shortTx(mem::TxType::AssertOwnership, frame3));
    EXPECT_EQ(checkpointer.checkpoints().value(), 1u);
    const auto *image = shadow.fetch(0xFE, 3);
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(*image, before);

    // The owner pushes dirty data back: the shadow refreshes.
    auto after = page(0xD2);
    auto wb = shortTx(mem::TxType::WriteBack, frame3);
    wb.bytes = kPage;
    wb.data = after.data();
    issue(wb);
    EXPECT_EQ(checkpointer.refreshes().value(), 1u);
    image = shadow.fetch(0xFE, 3);
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(*image, after);

    // Plain shared reads move no ownership: no snapshot taken.
    auto rd = shortTx(mem::TxType::ReadShared, 5 * kPage);
    std::vector<std::uint8_t> sink(kPage);
    rd.bytes = kPage;
    rd.data = sink.data();
    issue(rd);
    EXPECT_FALSE(shadow.contains(0xFE, 5));
}

std::vector<std::unique_ptr<trace::SyntheticGen>>
makeSources(std::uint32_t cpus, std::uint64_t refs_per_cpu,
            std::uint64_t seed)
{
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    for (std::uint32_t i = 0; i < cpus; ++i) {
        auto cfg = trace::workloadConfig("atum2");
        cfg.totalRefs = refs_per_cpu;
        cfg.seed = seed * 1000 + i;
        gens.push_back(std::make_unique<trace::SyntheticGen>(cfg));
    }
    return gens;
}

TEST(Checkpoint, FlatKillWithCheckpointLosesNoPages)
{
    core::VmpConfig cfg;
    cfg.processors = 4;
    cfg.cache = cache::CacheConfig{kPage, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::VmpSystem system(cfg);
    system.enableFrameCheckpoint();
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 64;
    auto &manager = system.enableRecovery(rc);
    system.killBoard(3, usec(300));

    auto gens = makeSources(4, 12'000, 7);
    std::vector<trace::RefSource *> raw;
    for (auto &g : gens)
        raw.push_back(g.get());
    system.runTraces(raw);

    EXPECT_EQ(manager.boardsDeclaredDead().value(), 1u);
    EXPECT_GE(manager.framesReclaimed().value(), 1u);
    // Every reclaimed Protect frame had a shadow image: nothing lost.
    EXPECT_EQ(manager.pagesLost().value(), 0u);
    EXPECT_EQ(manager.pagesRestored().value(),
              manager.framesReclaimed().value());
    ASSERT_NE(system.root().checkpointer, nullptr);
    EXPECT_GE(system.root().checkpointer->checkpoints().value(), 1u);
}

TEST(Checkpoint, HierKillWithCheckpointLosesNoPages)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{kPage, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::HierVmpSystem system(cfg);
    // Checkpoint first, recovery second: wiring must be
    // order-independent.
    system.enableFrameCheckpoint();
    EXPECT_TRUE(system.root().checkpointer != nullptr);
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 64;
    system.enableRecovery(rc);
    system.killBoard(1, usec(300));

    auto gens = makeSources(4, 6'000, 11);
    std::vector<trace::RefSource *> raw;
    for (auto &g : gens)
        raw.push_back(g.get());
    system.runTraces(raw);

    auto &manager = *system.cluster(0).recovery;
    EXPECT_EQ(manager.boardsDeclaredDead().value(), 1u);
    EXPECT_EQ(manager.pagesLost().value(), 0u);
    EXPECT_EQ(manager.pagesRestored().value(),
              manager.framesReclaimed().value());
}

} // namespace
} // namespace vmp::backing
