/**
 * @file
 * Tests for physical memory, the VMEbus model (timing, arbitration,
 * aborts, action-table side effects, data movement) and the block
 * copier. Timing expectations follow Section 2/5.1: 300 ns first word,
 * 100 ns per subsequent word, 150 ns check interval overlapped with the
 * transfer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/block_copier.hh"
#include "mem/bus_types.hh"
#include "mem/dma.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "sim/event.hh"
#include "sim/logging.hh"

namespace vmp::mem
{
namespace
{

/** Scripted watcher for bus tests. */
class FakeWatcher : public BusWatcher
{
  public:
    WatchVerdict verdict = WatchVerdict::Ignore;
    std::vector<BusTransaction> observed;
    std::vector<BusTransaction> updates;

    WatchVerdict
    observe(const BusTransaction &tx) override
    {
        observed.push_back(tx);
        return verdict;
    }

    void
    sideEffectUpdate(const BusTransaction &tx) override
    {
        updates.push_back(tx);
    }
};

struct BusFixture : public ::testing::Test
{
    EventQueue events;
    PhysMem memory{1 << 20, 256};
    VmeBus bus{events, memory};
};

// ------------------------------------------------------------ phys mem

TEST(PhysMem, FrameArithmetic)
{
    PhysMem mem(8u << 20, 256);
    EXPECT_EQ(mem.frames(), (8u << 20) / 256);
    EXPECT_EQ(mem.frameOf(0), 0u);
    EXPECT_EQ(mem.frameOf(255), 0u);
    EXPECT_EQ(mem.frameOf(256), 1u);
    EXPECT_EQ(mem.frameBase(3), 768u);
}

TEST(PhysMem, BlockAndWordRoundTrip)
{
    PhysMem mem(4096, 256);
    const std::uint8_t src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    mem.writeBlock(100, src, sizeof(src));
    std::uint8_t dst[8] = {};
    mem.readBlock(100, dst, sizeof(dst));
    EXPECT_EQ(std::memcmp(src, dst, 8), 0);

    mem.writeWord(0, 0xcafebabe);
    EXPECT_EQ(mem.readWord(0), 0xcafebabeu);
    EXPECT_EQ(mem.writes().value(), 2u);
}

TEST(PhysMem, OutOfRangePanics)
{
    PhysMem mem(4096, 256);
    std::uint8_t buf[16];
    EXPECT_THROW(mem.readBlock(4090, buf, 16), PanicError);
    EXPECT_THROW(mem.frameBase(16), PanicError);
    EXPECT_THROW(mem.frameOf(4096), PanicError);
}

TEST(PhysMem, UntouchedFramesReadAsZerosAndAllocateNothing)
{
    PhysMem mem(8u << 20, 256);
    EXPECT_EQ(mem.residentFrames(), 0u);
    std::vector<std::uint8_t> buf(512, 0xAB);
    mem.readBlock(1000, buf.data(), 512);
    for (const auto b : buf)
        ASSERT_EQ(b, 0);
    EXPECT_EQ(mem.readWord(8u << 19), 0u);
    // Zeroing a frame that was never written has nothing to clear.
    mem.zeroInit(4096, 256);
    EXPECT_EQ(mem.residentFrames(), 0u);
    EXPECT_EQ(mem.initWrites().value(), 1u);
    EXPECT_EQ(mem.writes().value(), 0u);
}

TEST(PhysMem, CrossFrameBlocksRoundTrip)
{
    PhysMem mem(4096, 256);
    std::vector<std::uint8_t> src(568);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 7 + 1);
    // Starts mid-frame 0 and ends at the end of frame 2.
    mem.writeBlock(200, src.data(), 568);
    EXPECT_EQ(mem.residentFrames(), 3u);
    std::vector<std::uint8_t> dst(568);
    mem.readBlock(200, dst.data(), 568);
    EXPECT_EQ(dst, src);
    // A read spanning a written and an untouched frame stitches both.
    std::uint8_t edge[8] = {};
    mem.readBlock(764, edge, 8);
    EXPECT_EQ(edge[0], src[564]);
    EXPECT_EQ(edge[3], src[567]);
    EXPECT_EQ(edge[4], 0);
    EXPECT_EQ(edge[7], 0);
    EXPECT_EQ(mem.residentFrames(), 3u);
    // Zeroing across frames clears only what it covers.
    mem.zeroInit(256, 256);
    mem.readBlock(200, dst.data(), 568);
    EXPECT_EQ(dst[55], src[55]);
    EXPECT_EQ(dst[56], 0);
    EXPECT_EQ(dst[311], 0);
    EXPECT_EQ(dst[312], src[312]);
}

TEST(PhysMem, CountersAreUnchangedBySparseStorage)
{
    PhysMem mem(4096, 256);
    const std::uint8_t src[4] = {1, 2, 3, 4};
    mem.writeBlock(254, src, 4); // spans two frames: one write
    mem.writeWord(0, 7);
    mem.initBlock(1024, src, 4);
    mem.zeroInit(2048, 512);
    EXPECT_EQ(mem.writes().value(), 2u);
    EXPECT_EQ(mem.initWrites().value(), 2u);
    EXPECT_EQ(mem.residentFrames(), 3u);
    // Out-of-range accesses still panic before touching anything.
    EXPECT_THROW(mem.writeBlock(4094, src, 4), PanicError);
    EXPECT_THROW(mem.zeroInit(4096, 1), PanicError);
    EXPECT_EQ(mem.writes().value(), 2u);
    EXPECT_EQ(mem.initWrites().value(), 2u);
}

TEST(PhysMem, ConfigValidation)
{
    EXPECT_THROW(PhysMem(1000, 256), FatalError);
    EXPECT_THROW(PhysMem(4096, 100), FatalError);
}

// ------------------------------------------------------------ timing

TEST(BusTiming, BlockTransferMatchesPaper)
{
    // 128B = 32 words: 300 + 31*100 = 3400 ns.
    EXPECT_EQ(blockNs(128), 3400u);
    // 256B = 64 words: 6600 ns (paper Table 1: 6.6 us bus time).
    EXPECT_EQ(blockNs(256), 6600u);
    // 512B = 128 words: 13000 ns (paper Table 1: 13.0 us).
    EXPECT_EQ(blockNs(512), 13000u);
    EXPECT_EQ(blockNs(0), 0u);
}

TEST(BusTiming, FortyMegabytesPerSecond)
{
    // "The VMEbus-based VMP block copier should transfer data at 40
    // megabytes per second" — the asymptotic rate of 4 bytes/100 ns.
    const double bytes = 1 << 20;
    const double secs =
        static_cast<double>(blockNs(1 << 20)) * 1e-9;
    EXPECT_NEAR(bytes / secs / 1e6, 40.0, 0.5);
}

TEST(BusTiming, ShortTransactionsCostOneCycle)
{
    EXPECT_EQ(occupancy(TxType::AssertOwnership, 0), 450u);
    EXPECT_EQ(occupancy(TxType::Notify, 0), 450u);
    EXPECT_EQ(occupancy(TxType::WriteActionTable, 0), 450u);
    EXPECT_EQ(occupancy(TxType::ReadShared, 256), 6600u);
}

// --------------------------------------------------------------- bus

TEST_F(BusFixture, ReadMovesDataAndTakesBlockTime)
{
    memory.writeWord(0x1000, 0x12345678);
    std::vector<std::uint8_t> buf(256, 0);

    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.requester = 0;
    tx.paddr = 0x1000;
    tx.bytes = 256;
    tx.data = buf.data();

    bool done = false;
    bus.request(tx, [&](const TxResult &res) {
        done = true;
        EXPECT_FALSE(res.aborted);
        EXPECT_EQ(res.busTime, 6600u);
        EXPECT_EQ(res.queueDelay, 0u);
    });
    events.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(events.now(), 6600u);
    std::uint32_t word = 0;
    std::memcpy(&word, buf.data(), 4);
    EXPECT_EQ(word, 0x12345678u);
}

TEST_F(BusFixture, WriteBackModifiesMemory)
{
    std::vector<std::uint8_t> buf(256, 0xab);
    BusTransaction tx;
    tx.type = TxType::WriteBack;
    tx.paddr = 0x2000;
    tx.bytes = 256;
    tx.data = buf.data();

    bus.request(tx, nullptr);
    events.run();
    EXPECT_EQ(memory.readWord(0x2000), 0xababababu);
}

TEST_F(BusFixture, FifoArbitrationQueuesSecondMaster)
{
    std::vector<std::uint8_t> a(256), b(256);
    Tick first_done = 0, second_done = 0;
    Tick second_delay = 0;

    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.paddr = 0;
    tx.bytes = 256;
    tx.data = a.data();
    bus.request(tx, [&](const TxResult &) { first_done = events.now(); });

    tx.requester = 1;
    tx.data = b.data();
    bus.request(tx, [&](const TxResult &res) {
        second_done = events.now();
        second_delay = res.queueDelay;
    });

    EXPECT_TRUE(bus.busy());
    events.run();
    EXPECT_EQ(first_done, 6600u);
    EXPECT_EQ(second_done, 13200u);
    EXPECT_EQ(second_delay, 6600u);
    EXPECT_FALSE(bus.busy());
    EXPECT_DOUBLE_EQ(bus.utilization(), 1.0);
}

TEST_F(BusFixture, UtilizationNeverExceedsOneMidTransfer)
{
    // Regression: busy ticks used to be charged in full at grant time,
    // so sampling utilization() halfway through a transfer returned
    // busyTicks / now = 6600 / 3300 = 2.0. The in-flight transaction
    // must be pro-rated to the elapsed portion instead.
    std::vector<std::uint8_t> buf(256, 0);
    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.paddr = 0;
    tx.bytes = 256;
    tx.data = buf.data();
    bus.request(tx, nullptr); // occupies [0, 6600)

    events.run(3300); // stop mid-transfer
    EXPECT_EQ(events.now(), 3300u);
    EXPECT_TRUE(bus.busy());
    EXPECT_DOUBLE_EQ(bus.utilization(), 1.0);
    EXPECT_LE(bus.utilization(), 1.0);

    events.run();
    EXPECT_DOUBLE_EQ(bus.utilization(), 1.0);
}

TEST_F(BusFixture, UtilizationProRatesAcrossIdleGaps)
{
    // First transfer [0, 6600), bus idle until a second request at
    // t = 13200 that occupies [13200, 19800). Sampled mid-second-
    // transfer at t = 16500 the bus has been busy 6600 + 3300 ticks
    // out of 16500: utilization 0.6 exactly — and <= 1.0 at every
    // sampling point along the way.
    std::vector<std::uint8_t> buf(256, 0);
    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.paddr = 0;
    tx.bytes = 256;
    tx.data = buf.data();
    bus.request(tx, nullptr);
    events.run();
    EXPECT_EQ(events.now(), 6600u);
    EXPECT_DOUBLE_EQ(bus.utilization(), 1.0);

    // Idle gap: advance the clock with no transaction in flight.
    events.schedule(
        events.now() + 6600, [&] { bus.request(tx, nullptr); },
        "second-request");
    events.run(9900); // idle sample point
    EXPECT_DOUBLE_EQ(bus.utilization(), 6600.0 / 9900.0);

    events.run(16500); // mid-second-transfer sample point
    EXPECT_TRUE(bus.busy());
    EXPECT_DOUBLE_EQ(bus.utilization(), 9900.0 / 16500.0);
    EXPECT_LE(bus.utilization(), 1.0);

    events.run();
    EXPECT_EQ(events.now(), 19800u);
    EXPECT_DOUBLE_EQ(bus.utilization(), 13200.0 / 19800.0);
}

TEST_F(BusFixture, WatcherAbortStopsDataAndShortensOccupancy)
{
    FakeWatcher watcher;
    watcher.verdict = WatchVerdict::AbortAndInterrupt;
    bus.attachWatcher(7, watcher);

    memory.writeWord(0x3000, 0x11223344);
    std::vector<std::uint8_t> buf(256, 0);
    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.paddr = 0x3000;
    tx.bytes = 256;
    tx.data = buf.data();
    tx.updatesTable = true;

    bool aborted = false;
    bus.request(tx, [&](const TxResult &res) { aborted = res.aborted; });
    events.run();
    EXPECT_TRUE(aborted);
    // Aborted transaction terminates early and moves no data.
    EXPECT_EQ(events.now(), 450u);
    EXPECT_EQ(buf[0], 0u);
    EXPECT_EQ(bus.aborts().value(), 1u);
    // No side-effect update on abort.
    EXPECT_TRUE(watcher.updates.empty());
}

TEST_F(BusFixture, AbortedWriteBackDoesNotTouchMemory)
{
    FakeWatcher watcher;
    watcher.verdict = WatchVerdict::AbortAndInterrupt;
    bus.attachWatcher(3, watcher);

    std::vector<std::uint8_t> buf(256, 0xff);
    BusTransaction tx;
    tx.type = TxType::WriteBack;
    tx.paddr = 0;
    tx.bytes = 256;
    tx.data = buf.data();
    bus.request(tx, nullptr);
    events.run();
    EXPECT_EQ(memory.readWord(0), 0u);
    EXPECT_EQ(memory.writes().value(), 0u);
}

TEST_F(BusFixture, SideEffectUpdateOnlyOnRequestersWatcher)
{
    FakeWatcher mine, theirs;
    bus.attachWatcher(0, mine);
    bus.attachWatcher(1, theirs);

    std::vector<std::uint8_t> buf(256);
    BusTransaction tx;
    tx.type = TxType::ReadPrivate;
    tx.requester = 0;
    tx.paddr = 0x400;
    tx.bytes = 256;
    tx.data = buf.data();
    tx.newEntry = ActionEntry::Protect;
    tx.updatesTable = true;

    bus.request(tx, nullptr);
    events.run();
    ASSERT_EQ(mine.updates.size(), 1u);
    EXPECT_EQ(mine.updates[0].newEntry, ActionEntry::Protect);
    EXPECT_TRUE(theirs.updates.empty());
    // Both watchers observed the transaction.
    EXPECT_EQ(mine.observed.size(), 1u);
    EXPECT_EQ(theirs.observed.size(), 1u);
}

TEST_F(BusFixture, DmaTransactionsAreNotObserved)
{
    FakeWatcher watcher;
    watcher.verdict = WatchVerdict::AbortAndInterrupt;
    bus.attachWatcher(0, watcher);

    std::vector<std::uint8_t> buf(512, 0x5a);
    BusTransaction tx;
    tx.type = TxType::DmaWrite;
    tx.requester = 9;
    tx.paddr = 0x800;
    tx.bytes = 512;
    tx.data = buf.data();

    bool aborted = true;
    bus.request(tx, [&](const TxResult &res) { aborted = res.aborted; });
    events.run();
    EXPECT_FALSE(aborted);
    EXPECT_TRUE(watcher.observed.empty());
    EXPECT_EQ(memory.readWord(0x800), 0x5a5a5a5au);
}

TEST_F(BusFixture, BlockTransactionValidation)
{
    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.bytes = 0;
    EXPECT_THROW(bus.request(tx, nullptr), PanicError);
    tx.bytes = 256;
    tx.data = nullptr;
    EXPECT_THROW(bus.request(tx, nullptr), PanicError);
}

TEST_F(BusFixture, DuplicateWatcherRejected)
{
    FakeWatcher w;
    bus.attachWatcher(0, w);
    EXPECT_THROW(bus.attachWatcher(0, w), FatalError);
}

TEST_F(BusFixture, TypeCountsTracked)
{
    std::vector<std::uint8_t> buf(256);
    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.paddr = 0;
    tx.bytes = 256;
    tx.data = buf.data();
    bus.request(tx, nullptr);
    tx.type = TxType::AssertOwnership;
    tx.bytes = 0;
    tx.data = nullptr;
    bus.request(tx, nullptr);
    events.run();
    EXPECT_EQ(bus.countOf(TxType::ReadShared).value(), 1u);
    EXPECT_EQ(bus.countOf(TxType::AssertOwnership).value(), 1u);
    EXPECT_EQ(bus.transactions().value(), 2u);
    EXPECT_EQ(bus.busyTicks(), 6600u + 450u);
}

// ------------------------------------------------------------- copier

TEST_F(BusFixture, CopierReadsPage)
{
    memory.writeWord(0x1000, 0x99aabbcc);
    BlockCopier copier(0, bus);
    std::vector<std::uint8_t> buf(256, 0);
    struct Owner final : BusClient
    {
        bool done = false;
        void
        busDone(std::uint64_t token, const TxResult &res) override
        {
            done = true;
            EXPECT_EQ(token, 7u);
            EXPECT_FALSE(res.aborted);
        }
    } owner;
    bool &done = owner.done;
    copier.readPage(0x1000, buf.data(), 256, false, {&owner, 7});
    EXPECT_TRUE(copier.busy());
    events.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(copier.busy());
    std::uint32_t word = 0;
    std::memcpy(&word, buf.data(), 4);
    EXPECT_EQ(word, 0x99aabbccu);
    EXPECT_EQ(copier.copies().value(), 1u);
}

TEST_F(BusFixture, CopierWriteBackCarriesDowngradeEntry)
{
    FakeWatcher watcher;
    bus.attachWatcher(0, watcher);
    BlockCopier copier(0, bus);
    std::vector<std::uint8_t> buf(256, 0x42);
    copier.writeBackPage(0x2000, buf.data(), 256, ActionEntry::Shared,
                         {});
    events.run();
    EXPECT_EQ(memory.readWord(0x2000), 0x42424242u);
    ASSERT_EQ(watcher.updates.size(), 1u);
    EXPECT_EQ(watcher.updates[0].newEntry, ActionEntry::Shared);
}

TEST_F(BusFixture, CopierRefusesConcurrentCopies)
{
    BlockCopier copier(0, bus);
    std::vector<std::uint8_t> a(256), b(256);
    copier.readPage(0, a.data(), 256, false, {});
    EXPECT_THROW(copier.readPage(256, b.data(), 256, false, {}),
                 PanicError);
}

// --------------------------------------------------------------- dma

TEST_F(BusFixture, DmaDeviceWriteAndRead)
{
    DmaDevice device(42, bus);
    std::vector<std::uint8_t> payload(128, 0x7e);
    bool wrote = false;
    device.write(0x5000, payload, [&] { wrote = true; });
    events.run();
    EXPECT_TRUE(wrote);
    EXPECT_EQ(memory.readWord(0x5000), 0x7e7e7e7eu);

    std::vector<std::uint8_t> got;
    device.read(0x5000, 128, [&](std::vector<std::uint8_t> data) {
        got = std::move(data);
    });
    events.run();
    ASSERT_EQ(got.size(), 128u);
    EXPECT_EQ(got[0], 0x7e);
    EXPECT_EQ(device.transfers().value(), 2u);
    EXPECT_EQ(device.bytesMoved(), 256u);
}

TEST_F(BusFixture, DmaDeviceValidation)
{
    DmaDevice device(42, bus);
    EXPECT_THROW(device.write(0, {}, nullptr), PanicError);
    EXPECT_THROW(device.read(0, 0, nullptr), PanicError);
}

TEST_F(BusFixture, DmaIgnoredByProtectEntries)
{
    // Even with a monitor protecting the frame, DMA is never aborted
    // (it is not consistency-related); the software bracket must
    // guarantee no cached copies instead.
    FakeWatcher watcher;
    watcher.verdict = WatchVerdict::AbortAndInterrupt;
    bus.attachWatcher(0, watcher);
    DmaDevice device(42, bus);
    bool wrote = false;
    device.write(0x6000, std::vector<std::uint8_t>(64, 1),
                 [&] { wrote = true; });
    events.run();
    EXPECT_TRUE(wrote);
    EXPECT_TRUE(watcher.observed.empty());
}

TEST_F(BusFixture, QueueDelayHistogramRecordsContention)
{
    std::vector<std::uint8_t> a(256), b(256);
    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.paddr = 0;
    tx.bytes = 256;
    tx.data = a.data();
    bus.request(tx, nullptr);
    tx.data = b.data();
    bus.request(tx, nullptr); // queues behind the first (6.6 us)
    events.run();
    const auto &hist = bus.queueDelays();
    EXPECT_EQ(hist.samples(), 2u);
    EXPECT_DOUBLE_EQ(hist.min(), 0.0);
    EXPECT_NEAR(hist.max(), 6.6, 0.01);
    EXPECT_EQ(hist.buckets()[0], 1u); // the unqueued one
    EXPECT_EQ(hist.buckets()[6], 1u); // the 6.6 us one
}

TEST(BusTypes, Names)
{
    EXPECT_STREQ(txTypeName(TxType::ReadShared), "read-shared");
    EXPECT_STREQ(txTypeName(TxType::WriteActionTable),
                 "write-action-table");
    EXPECT_STREQ(actionEntryName(ActionEntry::Protect), "10-protect");
    BusTransaction tx;
    tx.type = TxType::ReadPrivate;
    tx.paddr = 0xabc;
    EXPECT_NE(tx.toString().find("read-private"), std::string::npos);
}

TEST(BusTypes, Classification)
{
    EXPECT_TRUE(isConsistencyRelated(TxType::Notify));
    EXPECT_TRUE(isConsistencyRelated(TxType::WriteBack));
    EXPECT_FALSE(isConsistencyRelated(TxType::WriteActionTable));
    EXPECT_FALSE(isConsistencyRelated(TxType::DmaRead));
    EXPECT_TRUE(movesData(TxType::DmaWrite));
    EXPECT_FALSE(movesData(TxType::AssertOwnership));
}

} // namespace
} // namespace vmp::mem
