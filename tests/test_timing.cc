/**
 * @file
 * Timing regression anchors: the event-driven simulator must reproduce
 * the Table 1 cost identities for every (page size, victim state)
 * combination, must match the closed-form MissCostModel exactly, and
 * must expose the overlap of victim write-back with handler
 * bookkeeping (Section 5.1). These pins keep the timing model honest
 * as the controller evolves.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "analytic/models.hh"
#include "cache/cache.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "proto/controller.hh"
#include "sim/event.hh"

namespace vmp
{
namespace
{

constexpr cache::SlotFlags rwProt = static_cast<cache::SlotFlags>(
    cache::FlagSupWritable | cache::FlagUserReadable |
    cache::FlagUserWritable);

/** Single-CPU rig with a direct-mapped cache for victim control. */
struct TimingRig
{
    explicit TimingRig(std::uint32_t page_bytes)
        : memory(1 << 20, page_bytes), bus(events, memory),
          translator(page_bytes),
          cache(cache::CacheConfig{page_bytes, 1, 8, true}),
          monitor(0, 1 << 20, page_bytes),
          controller(0, events, cache, monitor, bus, translator)
    {
        bus.attachWatcher(0, monitor);
    }

    /** Complete one access, returning its elapsed time. */
    Tick
    timedAccess(Addr va, bool write)
    {
        const Tick start = events.now();
        bool done = false;
        if (write) {
            controller.writeWord(1, va, 1, false, [&] { done = true; });
        } else {
            controller.access(1, va, false, false,
                              [&](proto::AccessOutcome) {
                                  done = true;
                              });
        }
        events.run();
        EXPECT_TRUE(done);
        return events.now() - start;
    }

    EventQueue events;
    mem::PhysMem memory;
    mem::VmeBus bus;
    proto::FixedTranslator translator;
    cache::Cache cache;
    monitor::BusMonitor monitor;
    proto::CacheController controller;
};

using TimingCase = std::tuple<std::uint32_t, bool>;

class Table1TimingTest : public ::testing::TestWithParam<TimingCase>
{
};

TEST_P(Table1TimingTest, EventSimulatorMatchesClosedForm)
{
    const auto [page, dirty] = GetParam();
    TimingRig rig(page);

    // Two vaddrs in the same direct-mapped set force the eviction.
    const Addr va_victim = 0;
    const Addr va_new = 8ull * page;
    rig.translator.map(1, va_victim, 0x10000, rwProt);
    rig.translator.map(1, va_new, 0x20000, rwProt);

    if (dirty) {
        rig.timedAccess(va_victim, true);
    } else {
        rig.timedAccess(va_victim, false);
    }

    const Tick measured = rig.timedAccess(va_new, false);
    const analytic::MissCostModel model;
    const double expected_us = model.perMiss(page, dirty).elapsedUs;
    EXPECT_DOUBLE_EQ(toUsec(measured), expected_us)
        << "page=" << page << " dirty=" << dirty;
}

TEST_P(Table1TimingTest, BusTimeMatchesClosedForm)
{
    const auto [page, dirty] = GetParam();
    TimingRig rig(page);
    const Addr va_victim = 0;
    const Addr va_new = 8ull * page;
    rig.translator.map(1, va_victim, 0x10000, rwProt);
    rig.translator.map(1, va_new, 0x20000, rwProt);

    rig.timedAccess(va_victim, dirty);
    const Tick busy_before = rig.bus.busyTicks();
    rig.timedAccess(va_new, false);
    const Tick bus_used = rig.bus.busyTicks() - busy_before;

    const analytic::MissCostModel model;
    const double expected_us = model.perMiss(page, dirty).busUs;
    EXPECT_DOUBLE_EQ(toUsec(bus_used), expected_us);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, Table1TimingTest,
    ::testing::Combine(::testing::Values(128u, 256u, 512u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<TimingCase> &info) {
        return "p" + std::to_string(std::get<0>(info.param)) +
            (std::get<1>(info.param) ? "_dirty" : "_clean");
    });

TEST(Timing, WriteBackOverlapsBookkeeping)
{
    // The dirty-victim miss must cost less than serial software plus
    // BOTH transfers: part of the write-back hides under bookkeeping.
    TimingRig rig(512);
    rig.translator.map(1, 0, 0x10000, rwProt);
    rig.translator.map(1, 8ull * 512, 0x20000, rwProt);
    rig.timedAccess(0, true); // dirty victim
    const Tick dirty_miss = rig.timedAccess(8ull * 512, false);

    const Tick serial = proto::serialNs();
    const Tick xfer = mem::blockNs(512);
    EXPECT_LT(dirty_miss, serial + 2 * xfer);
    EXPECT_EQ(dirty_miss, serial + xfer + (xfer - proto::kOverlapNs));
}

TEST(Timing, OwnershipMissCheaperThanFullMiss)
{
    // Upgrading a shared copy (assert-ownership, no transfer) is much
    // cheaper than a full read-private miss.
    TimingRig rig(256);
    rig.translator.map(1, 0, 0x10000, rwProt);
    rig.timedAccess(0, false); // shared fill (full miss)
    const Tick upgrade = rig.timedAccess(0, true); // WriteShared miss

    const Tick expected =
        proto::kTrapEntryNs + proto::kOwnershipNs + mem::kShortTxNs;
    EXPECT_EQ(upgrade, expected);
    EXPECT_LT(upgrade, usec(15));
}

TEST(Timing, HitsTakeZeroHandlerTime)
{
    TimingRig rig(256);
    rig.translator.map(1, 0, 0x10000, rwProt);
    rig.timedAccess(0, false);
    // A hit completes synchronously: no software or bus time.
    EXPECT_EQ(rig.timedAccess(0, false), 0u);
}

} // namespace
} // namespace vmp
