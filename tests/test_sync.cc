/**
 * @file
 * Tests for the Section 5.4 synchronization primitives: each lock
 * flavour must provide mutual exclusion (exact shared-counter totals
 * under contention), and their relative bus behaviour must match the
 * paper's story — cached test-and-set drags the lock page between
 * caches; notification locks eliminate the spin traffic.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/logging.hh"
#include "sync/locks.hh"
#include "sync/mailbox.hh"
#include "trace/synthetic.hh"

namespace vmp::sync
{
namespace
{

core::VmpConfig
systemConfig(std::uint32_t cpus)
{
    core::VmpConfig cfg;
    cfg.processors = cpus;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    return cfg;
}

struct LockRun
{
    std::uint32_t finalCounter = 0;
    std::uint64_t busTransactions = 0;
    std::uint64_t readPrivates = 0;
    std::uint64_t assertOwns = 0;
    std::uint64_t notifies = 0;
    Tick elapsed = 0;
};

LockRun
runLockStudy(LockKind kind, std::uint32_t cpus, std::uint32_t iters)
{
    LockWorkload workload;
    workload.kind = kind;
    workload.iterations = iters;
    workload.counterAddr = trace::kernelBase + 0x4000;
    if (kind == LockKind::CachedTas) {
        // Lock on a *different* page from the counter (the same-page
        // case is studied separately in the bench).
        workload.lockAddr = trace::kernelBase + 0x8000;
    } else {
        workload.lockAddr = 0x100; // uncached physical lock word
    }

    core::VmpSystem system(systemConfig(cpus));
    const auto cpu_objs = system.runPrograms(
        std::vector<cpu::Program>(cpus, lockWorker(workload)));

    LockRun run;
    for (const auto &c : cpu_objs) {
        EXPECT_EQ(c->reg(7), iters);
        run.elapsed = std::max(run.elapsed, c->elapsed());
    }
    bool done = false;
    system.controller(0).readWord(1, workload.counterAddr, true,
                                  [&](std::uint32_t v) {
                                      run.finalCounter = v;
                                      done = true;
                                  });
    system.events().run();
    EXPECT_TRUE(done);
    run.busTransactions = system.root().bus.transactions().value();
    run.readPrivates =
        system.root().bus.countOf(mem::TxType::ReadPrivate).value();
    run.assertOwns =
        system.root().bus.countOf(mem::TxType::AssertOwnership).value();
    run.notifies = system.root().bus.countOf(mem::TxType::Notify).value();
    return run;
}

TEST(LockKindNames, AllNamed)
{
    EXPECT_STREQ(lockKindName(LockKind::CachedTas), "cached-tas");
    EXPECT_STREQ(lockKindName(LockKind::UncachedTas), "uncached-tas");
    EXPECT_STREQ(lockKindName(LockKind::Notify), "notify");
}

TEST(LockWorker, ValidatesIterations)
{
    LockWorkload workload;
    workload.iterations = 0;
    EXPECT_THROW(lockWorker(workload), FatalError);
}

TEST(LockWorker, SingleCpuAllKindsComplete)
{
    for (const LockKind kind :
         {LockKind::CachedTas, LockKind::UncachedTas,
          LockKind::Notify}) {
        const auto run = runLockStudy(kind, 1, 10);
        EXPECT_EQ(run.finalCounter, 10u) << lockKindName(kind);
    }
}

TEST(LockWorker, MutualExclusionUnderContention)
{
    for (const LockKind kind :
         {LockKind::CachedTas, LockKind::UncachedTas,
          LockKind::Notify}) {
        const auto run = runLockStudy(kind, 3, 15);
        EXPECT_EQ(run.finalCounter, 45u) << lockKindName(kind);
    }
}

TEST(LockWorker, CachedTasGeneratesOwnershipTraffic)
{
    const auto cached = runLockStudy(LockKind::CachedTas, 2, 20);
    const auto uncached = runLockStudy(LockKind::UncachedTas, 2, 20);
    // Spinning with cached TAS drags the lock page between caches:
    // far more ownership transactions than the uncached lock (whose
    // only cached traffic is the counter page itself).
    EXPECT_GT(cached.readPrivates + cached.assertOwns,
              2 * (uncached.readPrivates + uncached.assertOwns));
}

TEST(LockWorker, NotifyLockUsesNotifyTransactions)
{
    const auto run = runLockStudy(LockKind::Notify, 2, 10);
    EXPECT_EQ(run.finalCounter, 20u);
    EXPECT_GT(run.notifies, 0u);
}

TEST(LockWorker, ExtraWorkTouchesMoreData)
{
    LockWorkload workload;
    workload.kind = LockKind::UncachedTas;
    workload.iterations = 5;
    workload.lockAddr = 0x100;
    workload.counterAddr = trace::kernelBase + 0x4000;
    workload.extraWork = 4;
    workload.workBase = trace::kernelBase + 0xC000;

    core::VmpSystem system(systemConfig(1));
    const auto cpus =
        system.runPrograms({lockWorker(workload)});
    EXPECT_EQ(cpus[0]->reg(7), 5u);
    // The work words were really incremented.
    for (std::uint32_t w = 0; w < 4; ++w) {
        std::uint32_t value = 0;
        system.controller(0).readWord(
            1, workload.workBase + w * 64, true,
            [&](std::uint32_t v) { value = v; });
        system.events().run();
        EXPECT_EQ(value, 5u) << w;
    }
}

// ------------------------------------------------------------ mailbox

TEST(Mailbox, LayoutAndValidation)
{
    EXPECT_EQ(MailboxLayout::bytes(8), 12u + 32u);
    core::VmpSystem system(systemConfig(1));
    system.attachIdleServicers();
    EXPECT_THROW(MailboxReceiver(system.controller(0), 0x100, 3),
                 FatalError);
    bool sent = false;
    EXPECT_THROW(mailboxSend(system.controller(0), 0x100, 5, 1,
                             [&](bool) { sent = true; }),
                 FatalError);
}

TEST(Mailbox, SingleMessageDelivered)
{
    core::VmpSystem system(systemConfig(2));
    system.attachIdleServicers();
    const Addr box = 0x400; // reserved uncached frame

    MailboxReceiver receiver(system.controller(0), box, 8);
    std::vector<std::uint32_t> got;
    bool enabled = false;
    receiver.enable([&](std::uint32_t m) { got.push_back(m); },
                    [&] { enabled = true; });
    system.events().run();
    ASSERT_TRUE(enabled);

    bool delivered = false;
    mailboxSend(system.controller(1), box, 8, 0xBEEF,
                [&](bool ok) { delivered = ok; });
    system.events().run();
    EXPECT_TRUE(delivered);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 0xBEEFu);
    EXPECT_EQ(receiver.received().value(), 1u);
}

TEST(Mailbox, ManyMessagesInOrder)
{
    core::VmpSystem system(systemConfig(2));
    system.attachIdleServicers();
    const Addr box = 0x400;
    MailboxReceiver receiver(system.controller(0), box, 8);
    std::vector<std::uint32_t> got;
    receiver.enable([&](std::uint32_t m) { got.push_back(m); },
                    [] {});
    system.events().run();

    for (std::uint32_t i = 0; i < 20; ++i) {
        bool delivered = false;
        mailboxSend(system.controller(1), box, 8, 100 + i,
                    [&](bool ok) { delivered = ok; });
        system.events().run();
        EXPECT_TRUE(delivered) << i;
    }
    ASSERT_EQ(got.size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i)
        EXPECT_EQ(got[i], 100 + i);
}

TEST(Mailbox, FullRingRejectsWithoutBlocking)
{
    core::VmpSystem system(systemConfig(2));
    system.attachIdleServicers();
    const Addr box = 0x400;
    // Receiver exists but is NOT enabled: messages accumulate.
    MailboxReceiver receiver(system.controller(0), box, 4);
    int delivered = 0, dropped = 0;
    for (std::uint32_t i = 0; i < 6; ++i) {
        mailboxSend(system.controller(1), box, 4, i, [&](bool ok) {
            (ok ? delivered : dropped) += 1;
        });
        system.events().run();
    }
    EXPECT_EQ(delivered, 4);
    EXPECT_EQ(dropped, 2);
}

TEST(Mailbox, DisableStopsNotifications)
{
    core::VmpSystem system(systemConfig(2));
    system.attachIdleServicers();
    const Addr box = 0x400;
    MailboxReceiver receiver(system.controller(0), box, 8);
    int got = 0;
    receiver.enable([&](std::uint32_t) { ++got; }, [] {});
    system.events().run();
    mailboxSend(system.controller(1), box, 8, 1, [](bool) {});
    system.events().run();
    EXPECT_EQ(got, 1);

    bool disabled = false;
    receiver.disable([&] { disabled = true; });
    system.events().run();
    ASSERT_TRUE(disabled);
    mailboxSend(system.controller(1), box, 8, 2, [](bool) {});
    system.events().run();
    EXPECT_EQ(got, 1); // no notification handler, no drain
}

} // namespace
} // namespace vmp::sync
