/**
 * @file
 * Integration tests for the ownership protocol: the cache controller,
 * bus monitor and bus working together. Covers the Section 3.3 state
 * machine (shared/private transitions, downgrades, relinquish), the
 * alias self-competition trick, abort/retry liveness, interrupt FIFO
 * overflow recovery, the DMA bracket, uncached operations, and the
 * Table 1 timing identities of the software miss handler.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "check/coherence_checker.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "obs/event_tracer.hh"
#include "proto/controller.hh"
#include "proto/translator.hh"
#include "sim/event.hh"
#include "sim/logging.hh"

namespace vmp::proto
{
namespace
{

using cache::FlagSupWritable;
using cache::FlagUserReadable;
using cache::FlagUserWritable;
using mem::ActionEntry;

constexpr std::uint32_t pageBytes = 256;
constexpr std::uint64_t memBytes = 1 << 20;
constexpr cache::SlotFlags rwProt = static_cast<cache::SlotFlags>(
    FlagSupWritable | FlagUserReadable | FlagUserWritable);
constexpr cache::SlotFlags roProt =
    static_cast<cache::SlotFlags>(FlagSupWritable | FlagUserReadable);

/** One processor board. */
struct Board
{
    Board(CpuId id, EventQueue &events, mem::VmeBus &bus,
          Translator &translator, std::size_t fifo_capacity = 128)
        : cache(cache::CacheConfig{pageBytes, 2, 8, true}),
          monitor(id, memBytes, pageBytes, fifo_capacity),
          controller(id, events, cache, monitor, bus, translator)
    {
        bus.attachWatcher(id, monitor);
    }

    cache::Cache cache;
    monitor::BusMonitor monitor;
    CacheController controller;
};

/** Full mini-system with @p n processor boards. */
struct MiniSystem
{
    explicit MiniSystem(std::size_t n, std::size_t fifo_capacity = 128)
        : memory(memBytes, pageBytes), bus(events, memory),
          translator(pageBytes)
    {
        for (CpuId id = 0; id < n; ++id)
            boards.push_back(std::make_unique<Board>(
                id, events, bus, translator, fifo_capacity));
    }

    CacheController &ctl(std::size_t i) { return boards[i]->controller; }

    /** Drive a synchronous-looking access and run to completion. */
    AccessOutcome
    doAccess(std::size_t cpu, Asid asid, Addr va, bool write,
             bool sup = false)
    {
        AccessOutcome outcome = AccessOutcome::Hit;
        bool done = false;
        ctl(cpu).access(asid, va, write, sup, [&](AccessOutcome o) {
            outcome = o;
            done = true;
        });
        events.run();
        EXPECT_TRUE(done);
        return outcome;
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

    void
    doService(std::size_t cpu)
    {
        bool done = false;
        ctl(cpu).serviceInterrupts([&] { done = true; });
        events.run();
        EXPECT_TRUE(done);
    }

    EventQueue events;
    mem::PhysMem memory;
    mem::VmeBus bus;
    FixedTranslator translator;
    std::vector<std::unique_ptr<Board>> boards;
};

/** Virtual/physical layout used by most tests. */
constexpr Addr vaA = 0x10000; // maps to paA
constexpr Addr vaB = 0x20000; // maps to paB
constexpr Addr vaAlias = 0x30000; // second mapping of paA
constexpr Addr paA = 0x4000;
constexpr Addr paB = 0x5000;

struct ProtoTest : public ::testing::Test
{
    MiniSystem sys{2};

    void
    SetUp() override
    {
        for (Asid asid : {1, 2}) {
            sys.translator.map(asid, vaA, paA, rwProt);
            sys.translator.map(asid, vaB, paB, rwProt);
            sys.translator.map(asid, vaAlias, paA, rwProt);
        }
    }
};

// ------------------------------------------------------------ basics

TEST_F(ProtoTest, ColdReadMissFillsShared)
{
    const auto outcome = sys.doAccess(0, 1, vaA, false);
    EXPECT_EQ(outcome, AccessOutcome::MissCompleted);

    const FrameInfo *info = sys.ctl(0).frameInfo(paA);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->state, FrameState::Shared);
    EXPECT_EQ(sys.ctl(0).shadowEntry(paA), ActionEntry::Shared);
    EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paA),
              ActionEntry::Shared);
    EXPECT_EQ(sys.ctl(0).misses().value(), 1u);

    // Subsequent access hits at full speed.
    EXPECT_EQ(sys.doAccess(0, 1, vaA, false), AccessOutcome::Hit);
}

TEST_F(ProtoTest, CleanMissTimingMatchesTable1)
{
    // 256-byte page, clean victim: 13.5 us software + 6.6 us transfer.
    sys.doAccess(0, 1, vaA, false);
    EXPECT_EQ(sys.events.now(), 13'500u + 6'600u);
}

TEST_F(ProtoTest, DirtyVictimTimingMatchesTable1)
{
    // Two pages in the same cache set (2-way, 8 sets): vpns differ by
    // a multiple of 8. Fill both, dirty one, evict it with a third.
    const Addr conflict1 = vaA;
    const Addr conflict2 = vaA + 8 * pageBytes;
    const Addr conflict3 = vaA + 16 * pageBytes;
    sys.translator.map(1, conflict2, 0x6000, rwProt);
    sys.translator.map(1, conflict3, 0x7000, rwProt);

    sys.doWrite(0, 1, conflict1, 7); // dirty, private
    sys.doAccess(0, 1, conflict2, false);
    // Refresh LRU so conflict1 is the victim.
    sys.doAccess(0, 1, conflict2, false);
    sys.doAccess(0, 1, conflict1, false);
    const Tick before = sys.events.now();
    // conflict2 is now LRU... make conflict1 LRU instead:
    sys.doAccess(0, 1, conflict2, false);
    const Tick start = sys.events.now();
    EXPECT_EQ(start, before);

    sys.doAccess(0, 1, conflict3, false);
    // Dirty 256B victim: 2 + max(3.4, 6.6) + 8.1 + 6.6 = 23.3 us.
    EXPECT_EQ(sys.events.now() - start, 23'300u);
    // The dirty data reached memory.
    EXPECT_EQ(sys.memory.readWord(paA), 7u);
}

TEST_F(ProtoTest, WriteMissFillsPrivate)
{
    sys.doWrite(0, 1, vaA, 42);
    const FrameInfo *info = sys.ctl(0).frameInfo(paA);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->state, FrameState::Private);
    EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paA),
              ActionEntry::Protect);
    EXPECT_EQ(sys.doRead(0, 1, vaA), 42u);
    // Memory not yet updated (write-back cache).
    EXPECT_EQ(sys.memory.readWord(paA), 0u);
}

TEST_F(ProtoTest, WriteToSharedUpgradesViaAssertOwnership)
{
    sys.doAccess(0, 1, vaA, false); // shared copy
    const auto asserts_before =
        sys.bus.countOf(mem::TxType::AssertOwnership).value();
    sys.doWrite(0, 1, vaA, 5);
    EXPECT_EQ(sys.bus.countOf(mem::TxType::AssertOwnership).value(),
              asserts_before + 1);
    EXPECT_EQ(sys.ctl(0).ownershipMisses().value(), 1u);
    const FrameInfo *info = sys.ctl(0).frameInfo(paA);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->state, FrameState::Private);
}

// ----------------------------------------------------- two processors

TEST_F(ProtoTest, TwoReadersShareWithoutConflict)
{
    sys.doAccess(0, 1, vaA, false);
    const auto aborts = sys.bus.aborts().value();
    sys.doAccess(1, 2, vaA, false);
    EXPECT_EQ(sys.bus.aborts().value(), aborts);
    EXPECT_EQ(sys.ctl(0).frameInfo(paA)->state, FrameState::Shared);
    EXPECT_EQ(sys.ctl(1).frameInfo(paA)->state, FrameState::Shared);
}

TEST_F(ProtoTest, WriterInvalidatesRemoteSharedCopies)
{
    sys.doAccess(0, 1, vaA, false); // cpu0 shared
    sys.doWrite(1, 2, vaA, 99);     // cpu1 read-private

    // cpu0 got an interrupt word; service it.
    EXPECT_TRUE(sys.ctl(0).interruptPending());
    sys.doService(0);

    EXPECT_EQ(sys.ctl(0).frameInfo(paA), nullptr);
    EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paA),
              ActionEntry::Ignore);
    // cpu0's next access misses and must wait for cpu1 to relinquish.
    sys.ctl(1).setIrqService(IrqService::Idle);
    EXPECT_EQ(sys.doRead(0, 1, vaA), 99u);
}

TEST_F(ProtoTest, ReadFromOwnedPageForcesWriteBackAndDowngrade)
{
    sys.doWrite(0, 1, vaA, 1234); // cpu0 owns dirty
    sys.ctl(0).setIrqService(IrqService::Idle);

    // cpu1's read-shared is aborted, cpu0 downgrades with write-back,
    // cpu1 retries and succeeds.
    EXPECT_EQ(sys.doRead(1, 2, vaA), 1234u);
    EXPECT_GE(sys.bus.aborts().value(), 1u);
    EXPECT_GE(sys.ctl(1).retries().value(), 1u);
    EXPECT_EQ(sys.memory.readWord(paA), 1234u);

    const FrameInfo *info0 = sys.ctl(0).frameInfo(paA);
    ASSERT_NE(info0, nullptr);
    EXPECT_EQ(info0->state, FrameState::Shared);
    // cpu0's copy is still valid, now shared and clean.
    const auto res = sys.boards[0]->cache.probe(1, vaA, false, false);
    ASSERT_TRUE(res.hit);
    EXPECT_FALSE(sys.boards[0]->cache.slot(res.slot).exclusive());
    EXPECT_FALSE(sys.boards[0]->cache.slot(res.slot).modified());
}

TEST_F(ProtoTest, OwnershipMigrationPingPong)
{
    sys.ctl(0).setIrqService(IrqService::Idle);
    sys.ctl(1).setIrqService(IrqService::Idle);

    // Alternating writers to the same page; each transfer must both
    // terminate (deadlock freedom) and preserve the last write.
    for (std::uint32_t i = 0; i < 10; ++i) {
        const std::size_t cpu = i % 2;
        sys.doWrite(cpu, static_cast<Asid>(cpu + 1), vaA, i);
    }
    EXPECT_EQ(sys.doRead(0, 1, vaA), 9u);
    EXPECT_GE(sys.ctl(0).writeBacks().value() +
                  sys.ctl(1).writeBacks().value(),
              5u);
}

TEST_F(ProtoTest, SequentialConsistencyForDataRaceFreeSum)
{
    sys.ctl(0).setIrqService(IrqService::Idle);
    sys.ctl(1).setIrqService(IrqService::Idle);

    // Two CPUs increment the same counter alternately (externally
    // serialized, as a lock would): the final value is exact.
    for (int i = 0; i < 20; ++i) {
        const std::size_t cpu = i % 2;
        const Asid asid = static_cast<Asid>(cpu + 1);
        const std::uint32_t v = sys.doRead(cpu, asid, vaA);
        sys.doWrite(cpu, asid, vaA, v + 1);
    }
    EXPECT_EQ(sys.doRead(0, 1, vaA), 20u);
}

// -------------------------------------------------------------- alias

TEST_F(ProtoTest, SharedAliasesCoexist)
{
    sys.doAccess(0, 1, vaA, false);
    sys.doAccess(0, 1, vaAlias, false);
    // Two slots cache the same frame, both shared.
    EXPECT_EQ(sys.boards[0]->cache.validCount(), 2u);
    const FrameInfo *info = sys.ctl(0).frameInfo(paA);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->state, FrameState::Shared);
}

TEST_F(ProtoTest, AliasChainSurvivesDroppingItsMiddleSlot)
{
    // One frame under three vaddrs in three sets: the controller
    // chains the three slots from the frame's entry. Each step below
    // walks or edits that chain, and the invariants hold after each.
    check::CoherenceChecker checker(sys.bus, sys.memory);
    checker.addController(sys.ctl(0));
    checker.addController(sys.ctl(1));
    checker.install();
    constexpr Addr va1 = vaA;          // set 0
    constexpr Addr va2 = 0x30100;      // set 1
    constexpr Addr va3 = 0x30200;      // set 2
    for (const Addr va : {va2, va3})
        sys.translator.map(1, va, paA, rwProt);
    const auto cached = [&](Addr va) {
        return sys.boards[0]->cache.probe(1, va, false, false).hit;
    };
    for (const Addr va : {va1, va2, va3})
        sys.doAccess(0, 1, va, false);
    EXPECT_EQ(sys.boards[0]->cache.validCount(), 3u);
    EXPECT_EQ(checker.checkFull(), 0u);

    // Victim replacement drops the middle of the chain: two more
    // pages fill va2's two-way set.
    sys.translator.map(1, 0x40100, 0x8000, rwProt);
    sys.translator.map(1, 0x50100, 0x9000, rwProt);
    sys.doAccess(0, 1, 0x40100, false);
    sys.doAccess(0, 1, 0x50100, false);
    EXPECT_FALSE(cached(va2));
    EXPECT_TRUE(cached(va1));
    EXPECT_TRUE(cached(va3));
    ASSERT_NE(sys.ctl(0).frameInfo(paA), nullptr);
    EXPECT_EQ(sys.ctl(0).frameInfo(paA)->state, FrameState::Shared);
    EXPECT_EQ(checker.checkFull(), 0u);

    // Downgrade: own and dirty the frame through va1 (the echo
    // discards va3, the chain's head), then a remote read forces the
    // write-back and a shared copy.
    sys.doWrite(0, 1, va1, 5);
    sys.doService(0);
    EXPECT_FALSE(cached(va3));
    sys.ctl(0).setIrqService(IrqService::Idle);
    sys.ctl(1).setIrqService(IrqService::Idle);
    EXPECT_EQ(sys.doRead(1, 2, vaA), 5u);
    EXPECT_EQ(sys.ctl(0).frameInfo(paA)->state, FrameState::Shared);
    EXPECT_TRUE(cached(va1));
    EXPECT_EQ(sys.memory.readWord(paA), 5u);
    EXPECT_EQ(checker.checkFull(), 0u);

    // Relinquish: with va3 cached again, a remote write drops both
    // slots of the chain and the frame's entry.
    sys.doAccess(0, 1, va3, false);
    sys.doWrite(1, 2, vaA, 6);
    EXPECT_FALSE(cached(va1));
    EXPECT_FALSE(cached(va3));
    EXPECT_EQ(sys.ctl(0).frameInfo(paA), nullptr);
    EXPECT_EQ(checker.checkFull(), 0u);

    // DMA bracket with the aliases still cached (their echo not yet
    // serviced): releasing the protection leaves the frame Shared.
    EXPECT_EQ(sys.doRead(0, 1, va1), 6u);
    sys.doAccess(0, 1, va3, false);
    sys.ctl(0).setIrqService(IrqService::Off);
    const auto bracket = [&](ActionEntry released) {
        bool done = false;
        sys.ctl(0).assertOwnership(paA, [&] { done = true; });
        sys.events.run();
        ASSERT_TRUE(done);
        EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paA),
                  ActionEntry::Protect);
        done = false;
        sys.ctl(0).releaseProtection(paA, [&] { done = true; });
        sys.events.run();
        ASSERT_TRUE(done);
        EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paA), released);
        EXPECT_EQ(sys.ctl(0).shadowEntry(paA), released);
        sys.doService(0);
    };
    bracket(ActionEntry::Shared);
    // The echo of the assert-ownership discarded both aliases.
    EXPECT_FALSE(cached(va1));
    EXPECT_FALSE(cached(va3));
    EXPECT_EQ(sys.ctl(0).frameInfo(paA), nullptr);
    EXPECT_EQ(checker.checkFull(), 0u);

    // With no slot left, the release clears the entry.
    bracket(ActionEntry::Ignore);
    EXPECT_EQ(sys.ctl(0).frameInfo(paA), nullptr);
    EXPECT_EQ(checker.checkFull(), 0u);
    EXPECT_EQ(checker.violations().value(), 0u);
}

TEST_F(ProtoTest, AliasReadOfOwnedPageSelfCompetes)
{
    sys.doWrite(0, 1, vaA, 77); // own privately via vaA
    const auto aborts = sys.bus.aborts().value();

    // Reading the alias issues read-shared; our own monitor aborts it,
    // we downgrade (write back), and the retry succeeds.
    EXPECT_EQ(sys.doRead(0, 1, vaAlias), 77u);
    EXPECT_GT(sys.bus.aborts().value(), aborts);
    EXPECT_EQ(sys.memory.readWord(paA), 77u);
    EXPECT_EQ(sys.ctl(0).frameInfo(paA)->state, FrameState::Shared);
}

TEST_F(ProtoTest, WriteUpgradeDiscardsOwnAliasCopies)
{
    sys.doAccess(0, 1, vaA, false);
    sys.doAccess(0, 1, vaAlias, false);
    // Upgrade via vaA: the self-echo interrupt discards the vaAlias
    // copy ("when a cache page becomes private, all other cached
    // copies of the page are discarded").
    sys.doWrite(0, 1, vaA, 3);
    sys.doService(0);
    const auto res = sys.boards[0]->cache.probe(1, vaAlias, false, false);
    EXPECT_FALSE(res.hit);
    // The owning copy survives.
    EXPECT_TRUE(sys.boards[0]->cache.probe(1, vaA, false, false).hit);
}

TEST_F(ProtoTest, AliasWriteAfterWriteStaysCoherent)
{
    sys.doWrite(0, 1, vaA, 10);
    // Write via the alias: read-private against our own Protect entry
    // aborts, we flush, retry acquires privately again.
    sys.doWrite(0, 1, vaAlias, 20);
    sys.doService(0);
    EXPECT_EQ(sys.doRead(0, 1, vaAlias), 20u);
    // After flushing and re-fetching, vaA sees the same frame.
    sys.ctl(0).setIrqService(IrqService::Idle);
    EXPECT_EQ(sys.doRead(0, 1, vaA), 20u);
}

// --------------------------------------------------------- protection

TEST_F(ProtoTest, ProtectionFaultInvokesHandlerAndRetries)
{
    sys.translator.map(1, vaB, paB, roProt); // read-only
    int faults = 0;
    sys.ctl(0).setFaultHandler(
        [&](const TranslateRequest &req, CacheController::Done retry) {
            ++faults;
            EXPECT_TRUE(req.write);
            sys.translator.map(1, vaB, paB, rwProt);
            retry();
        });
    sys.doWrite(0, 1, vaB, 5);
    EXPECT_EQ(faults, 1);
    EXPECT_EQ(sys.doRead(0, 1, vaB), 5u);
}

TEST_F(ProtoTest, UnmappedPageFaults)
{
    const Addr unmapped = 0x90000;
    int faults = 0;
    sys.ctl(0).setFaultHandler(
        [&](const TranslateRequest &req, CacheController::Done retry) {
            ++faults;
            sys.translator.map(1, unmapped, 0x8000, rwProt);
            (void)req;
            retry();
        });
    EXPECT_EQ(sys.doAccess(0, 1, unmapped, false),
              AccessOutcome::MissCompleted);
    EXPECT_EQ(faults, 1);
}

TEST_F(ProtoTest, FaultWithoutHandlerIsFatal)
{
    EXPECT_THROW(sys.doAccess(0, 1, 0xdead0000, false), FatalError);
}

TEST_F(ProtoTest, ReadOnlyPageReadableButNotWritable)
{
    sys.translator.map(1, vaB, paB, roProt);
    EXPECT_EQ(sys.doAccess(0, 1, vaB, false),
              AccessOutcome::MissCompleted);
    int faults = 0;
    sys.ctl(0).setFaultHandler(
        [&](const TranslateRequest &, CacheController::Done retry) {
            ++faults;
            sys.translator.map(1, vaB, paB, rwProt);
            retry();
        });
    sys.doWrite(0, 1, vaB, 1);
    EXPECT_EQ(faults, 1);
}

// ----------------------------------------------- stale entries / FIFO

TEST_F(ProtoTest, StaleSharedEntryCleanedLazily)
{
    // Fill the set so a shared page gets evicted without an
    // action-table write (lazy cleanup policy).
    sys.doAccess(0, 1, vaA, false);
    for (int i = 1; i <= 2; ++i) {
        const Addr va = vaA + i * 8 * pageBytes;
        sys.translator.map(1, va, 0x8000 + i * 0x1000, rwProt);
        sys.doAccess(0, 1, va, false);
    }
    // vaA evicted; the 01 entry is stale.
    EXPECT_FALSE(sys.boards[0]->cache.probe(1, vaA, false, false).hit);
    EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paA),
              ActionEntry::Shared);

    // A remote writer triggers the spurious interrupt; servicing it
    // clears the stale entry.
    sys.doWrite(1, 2, vaA, 1);
    sys.doService(0);
    EXPECT_EQ(sys.ctl(0).spuriousWords().value(), 1u);
    EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paA),
              ActionEntry::Ignore);
}

TEST(DemandTranslator, OutOfFramesStaysFatal)
{
    // Four frames, two reserved: two pages fit, handed out in
    // first-touch order. The third page is fatal every time it is
    // asked for, and maps nothing past the end of memory.
    DemandTranslator translator(4 * pageBytes, pageBytes, 0, 0, 2);
    const auto paddr = [&](Asid asid, Addr va) {
        return translator.translateNow({asid, va}).paddr;
    };
    EXPECT_EQ(paddr(1, vaB), 2 * pageBytes);
    EXPECT_EQ(paddr(1, vaA + 4), 3 * pageBytes + 4);
    EXPECT_EQ(paddr(1, vaB + 8), 2 * pageBytes + 8);
    EXPECT_THROW(translator.translateNow({2, vaB}), FatalError);
    EXPECT_THROW(translator.translateNow({2, vaB}), FatalError);
    EXPECT_EQ(translator.allocated(), 4u);
}

TEST(ProtoFifo, OverflowRecoveryInvalidatesSharedEntries)
{
    // FIFO of capacity 1 drops words easily.
    MiniSystem sys(2, 1);
    sys.translator.map(1, vaA, paA, rwProt);
    sys.translator.map(1, vaB, paB, rwProt);
    sys.translator.map(2, vaA, paA, rwProt);
    sys.translator.map(2, vaB, paB, rwProt);

    // cpu0 holds two shared pages.
    sys.doAccess(0, 1, vaA, false);
    sys.doAccess(0, 1, vaB, false);

    // cpu1 takes both privately; the second word is dropped.
    sys.doWrite(1, 2, vaA, 1);
    sys.doWrite(1, 2, vaB, 2);
    EXPECT_TRUE(sys.boards[0]->monitor.fifo().overflowed());

    sys.doService(0);
    EXPECT_EQ(sys.ctl(0).overflowRecoveries().value(), 1u);
    // Both shared copies are gone and both entries cleared, even the
    // one whose word was lost.
    EXPECT_FALSE(sys.boards[0]->cache.probe(1, vaA, false, false).hit);
    EXPECT_FALSE(sys.boards[0]->cache.probe(1, vaB, false, false).hit);
    EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paA),
              ActionEntry::Ignore);
    EXPECT_EQ(sys.boards[0]->monitor.table().entryFor(paB),
              ActionEntry::Ignore);
    EXPECT_FALSE(sys.boards[0]->monitor.fifo().overflowed());
}

// ------------------------------------------------- DMA bracket & misc

TEST_F(ProtoTest, AssertOwnershipFlushesAllCaches)
{
    sys.doAccess(0, 1, vaA, false); // cpu0 shared copy
    sys.doWrite(1, 2, vaB, 9);      // cpu1 owns paB dirty

    // A third party (cpu1 here, acting as the OS) prepares paA for DMA.
    bool done = false;
    sys.ctl(1).assertOwnership(paA, [&] { done = true; });
    sys.events.run();
    EXPECT_TRUE(done);
    sys.doService(0);
    EXPECT_FALSE(sys.boards[0]->cache.probe(1, vaA, false, false).hit);
    EXPECT_EQ(sys.boards[1]->monitor.table().entryFor(paA),
              ActionEntry::Protect);

    // DMA writes proceed unobserved; consistency transactions from
    // other masters would be aborted meanwhile.
    done = false;
    sys.ctl(1).releaseProtection(paA, [&] { done = true; });
    sys.events.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sys.boards[1]->monitor.table().entryFor(paA),
              ActionEntry::Ignore);
}

TEST_F(ProtoTest, ProtectedFrameAbortsRemoteAccess)
{
    bool done = false;
    sys.ctl(0).assertOwnership(paA, [&] { done = true; });
    sys.events.run();
    ASSERT_TRUE(done);

    // cpu1's read is aborted until cpu0 releases.
    sys.ctl(0).setIrqService(IrqService::Idle);
    EXPECT_EQ(sys.doRead(1, 2, vaA), 0u);
    EXPECT_GE(sys.ctl(1).retries().value(), 1u);
    // cpu0's service relinquished the protection.
    EXPECT_EQ(sys.ctl(0).frameInfo(paA), nullptr);
}

TEST_F(ProtoTest, NotifyReachesSubscribedProcessor)
{
    std::vector<Addr> notified;
    sys.ctl(0).setNotifyHandler(
        [&](Addr paddr) { notified.push_back(paddr); });

    bool set = false;
    sys.ctl(0).writeTable(paB, ActionEntry::Notify, [&] { set = true; });
    sys.events.run();
    ASSERT_TRUE(set);

    bool sent = false;
    sys.ctl(1).notifyFrame(paB, [&] { sent = true; });
    sys.events.run();
    ASSERT_TRUE(sent);
    sys.doService(0);
    ASSERT_EQ(notified.size(), 1u);
    EXPECT_EQ(notified[0], alignDown(paB, pageBytes));
}

TEST_F(ProtoTest, UncachedOperationsBypassCache)
{
    sys.memory.writeWord(0x9000, 123);
    std::uint32_t got = 0;
    sys.ctl(0).uncachedRead(0x9000, [&](std::uint32_t v) { got = v; });
    sys.events.run();
    EXPECT_EQ(got, 123u);

    bool wrote = false;
    sys.ctl(0).uncachedWrite(0x9004, 456, [&] { wrote = true; });
    sys.events.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(sys.memory.readWord(0x9004), 456u);
    // No cache slot was consumed.
    EXPECT_EQ(sys.boards[0]->cache.validCount(), 0u);
}

TEST_F(ProtoTest, UncachedTasIsAtomicTestAndSet)
{
    std::uint32_t first = 99, second = 99;
    sys.ctl(0).uncachedTas(0xa000, [&](std::uint32_t v) { first = v; });
    sys.events.run();
    sys.ctl(1).uncachedTas(0xa000, [&](std::uint32_t v) { second = v; });
    sys.events.run();
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(second, 1u);
    EXPECT_EQ(sys.memory.readWord(0xa000), 1u);
}

TEST_F(ProtoTest, PrivateHintFetchesReadPrivate)
{
    // Section 5.4: memory declared non-shared is fetched read-private
    // even on a read miss, so the first write needs no upgrade.
    const Addr va_hinted = 0x50000;
    sys.translator.map(1, va_hinted, 0x6000, rwProt,
                       /*private_hint=*/true);

    const auto rp_before =
        sys.bus.countOf(mem::TxType::ReadPrivate).value();
    EXPECT_EQ(sys.doAccess(0, 1, va_hinted, false),
              AccessOutcome::MissCompleted);
    EXPECT_EQ(sys.bus.countOf(mem::TxType::ReadPrivate).value(),
              rp_before + 1);
    EXPECT_EQ(sys.ctl(0).hintedPrivateFills().value(), 1u);

    const FrameInfo *info = sys.ctl(0).frameInfo(0x6000);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->state, FrameState::Private);

    // First write is a plain hit: no assert-ownership needed.
    const auto ao_before =
        sys.bus.countOf(mem::TxType::AssertOwnership).value();
    sys.doWrite(0, 1, va_hinted, 9);
    EXPECT_EQ(sys.bus.countOf(mem::TxType::AssertOwnership).value(),
              ao_before);
}

// ------------------------------------------------ protocol invariants

TEST_F(ProtoTest, OnlyWriteBacksMutateMemoryDuringCachedWork)
{
    sys.ctl(0).setIrqService(IrqService::Idle);
    sys.ctl(1).setIrqService(IrqService::Idle);
    for (std::uint32_t i = 0; i < 12; ++i) {
        const std::size_t cpu = i % 2;
        const Asid asid = static_cast<Asid>(cpu + 1);
        sys.doWrite(cpu, asid, vaA, i);
        sys.doAccess(cpu, asid, vaB, i % 3 == 0);
    }
    // Every memory write was a successful write-back transaction.
    EXPECT_EQ(sys.memory.writes().value(),
              sys.bus.countOf(mem::TxType::WriteBack).value());
}

TEST_F(ProtoTest, TwoStateInvariantAfterQuiescence)
{
    sys.ctl(0).setIrqService(IrqService::Idle);
    sys.ctl(1).setIrqService(IrqService::Idle);
    for (std::uint32_t i = 0; i < 8; ++i) {
        sys.doWrite(i % 2, static_cast<Asid>(i % 2 + 1), vaA, i);
        sys.doRead((i + 1) % 2, static_cast<Asid>((i + 1) % 2 + 1), vaA);
    }
    sys.doService(0);
    sys.doService(1);

    // At quiescence the frame is either private to exactly one cache
    // or shared with memory current.
    const FrameInfo *i0 = sys.ctl(0).frameInfo(paA);
    const FrameInfo *i1 = sys.ctl(1).frameInfo(paA);
    const bool p0 = i0 && i0->state == FrameState::Private;
    const bool p1 = i1 && i1->state == FrameState::Private;
    EXPECT_FALSE(p0 && p1);
    if (!p0 && !p1) {
        // Shared: both copies (if any) must equal memory.
        const std::uint32_t mem_val = sys.memory.readWord(paA);
        for (std::size_t cpu = 0; cpu < 2; ++cpu) {
            const Asid asid = static_cast<Asid>(cpu + 1);
            const auto res =
                sys.boards[cpu]->cache.probe(asid, vaA, false, false);
            if (res.hit) {
                std::uint32_t v = 0;
                sys.boards[cpu]->cache.readBytes(
                    res.slot, sys.boards[cpu]->cache.offsetOf(vaA),
                    &v, 4);
                EXPECT_EQ(v, mem_val);
            }
        }
    }
}

// -------------------------------------------------- interrupt service

/** Queue @p words Notify words on cpu0's monitor, raising its line per
 *  word: each costs one service quantum and no bus traffic. */
void
raiseNotifies(MiniSystem &sys, int words)
{
    sys.boards[0]->monitor.table().setFor(paA, ActionEntry::Notify);
    mem::BusTransaction tx;
    tx.type = mem::TxType::Notify;
    tx.requester = 1;
    tx.paddr = paA;
    for (int i = 0; i < words; ++i)
        sys.boards[0]->monitor.observe(tx);
}

TEST(ServiceRecord, OverlappingCallsJoinOneDrain)
{
    MiniSystem sys{1};
    obs::EventTracer tracer;
    int spans = 0;
    tracer.addSink([&](const obs::TraceEvent &event) {
        spans += event.kind == obs::EventKind::Service;
    });
    sys.ctl(0).setTracer(&tracer, tracer.registerTrack("cpu0"));
    raiseNotifies(sys, 3);
    std::vector<int> order;
    sys.ctl(0).serviceInterrupts([&] { order.push_back(1); });
    sys.ctl(0).serviceInterrupts([&] { order.push_back(2); });
    sys.events.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(spans, 1);
    EXPECT_EQ(sys.ctl(0).wordsServiced().value(), 3u);
    EXPECT_EQ(sys.ctl(0).serviceStallTicks(),
              3 * sys.ctl(0).timing().serviceNs);
}

TEST(IrqService, OffLeavesWordsPending)
{
    MiniSystem sys{1};
    EXPECT_EQ(sys.ctl(0).irqService(), IrqService::Off);
    raiseNotifies(sys, 2);
    sys.events.run();
    EXPECT_EQ(sys.events.dispatched(), 0u);
    EXPECT_TRUE(sys.ctl(0).interruptPending());
}

TEST(IrqService, IdleServicesABurstWithOnePass)
{
    MiniSystem sys{1};
    sys.ctl(0).setIrqService(IrqService::Idle);
    raiseNotifies(sys, 3);
    sys.events.run();
    // One idle-service pass, then one software quantum per word.
    EXPECT_EQ(sys.events.dispatched(), 1u + 3u);
    EXPECT_EQ(sys.ctl(0).wordsServiced().value(), 3u);
}

TEST(IrqService, SwitchFromPolledToIdleServicesPendingWords)
{
    MiniSystem sys{1};
    sys.ctl(0).setIrqService(IrqService::Polled);
    raiseNotifies(sys, 2);
    sys.events.run();
    EXPECT_TRUE(sys.ctl(0).interruptPending());
    sys.ctl(0).setIrqService(IrqService::Idle);
    sys.events.run();
    EXPECT_EQ(sys.ctl(0).wordsServiced().value(), 2u);
}

TEST(IrqService, PassScheduledBeforeOffDoesNothing)
{
    MiniSystem sys{1};
    sys.ctl(0).setIrqService(IrqService::Idle);
    raiseNotifies(sys, 1);
    sys.ctl(0).setIrqService(IrqService::Off);
    sys.events.run();
    EXPECT_EQ(sys.events.dispatched(), 1u);
    EXPECT_TRUE(sys.ctl(0).interruptPending());
    // The skipped pass left nothing stale behind.
    sys.ctl(0).setIrqService(IrqService::Idle);
    sys.events.run();
    EXPECT_FALSE(sys.ctl(0).interruptPending());
}

TEST(IrqService, DestroyingTheControllerCancelsItsPendingPass)
{
    MiniSystem sys{1};
    sys.ctl(0).setIrqService(IrqService::Idle);
    raiseNotifies(sys, 1);
    ASSERT_EQ(sys.events.pending(), 1u);
    sys.boards[0].reset();
    EXPECT_EQ(sys.events.pending(), 0u);
}

} // namespace
} // namespace vmp::proto
