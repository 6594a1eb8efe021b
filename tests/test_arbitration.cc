/**
 * @file
 * Arbitration-discipline tests: grant-order properties of the VME
 * priority and round-robin arbiters, the completed-vs-aborted
 * queue-delay histogram split, and full-system fingerprint tests
 * pinning the default FIFO discipline bit-identical to the seed
 * simulator (same elapsed ticks, same event counts, seed for seed).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/hier_system.hh"
#include "core/system.hh"
#include "mem/vme_bus.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace vmp::mem
{
namespace
{

/** Watcher that aborts the first @p abortCount observed transactions. */
class AbortingWatcher : public BusWatcher
{
  public:
    int abortCount = 0;

    WatchVerdict
    observe(const BusTransaction &) override
    {
        if (abortCount > 0) {
            --abortCount;
            return WatchVerdict::AbortAndInterrupt;
        }
        return WatchVerdict::Ignore;
    }

    void sideEffectUpdate(const BusTransaction &) override {}
};

struct ArbFixture
{
    EventQueue events;
    PhysMem memory{1 << 20, 256};

    /** Queue one short consistency transaction for @p master and
     *  record the master id into @p order on completion. */
    static void
    submit(VmeBus &bus, std::uint32_t master,
           std::vector<std::uint32_t> &order)
    {
        BusTransaction tx;
        tx.type = TxType::AssertOwnership;
        tx.requester = master;
        tx.paddr = 0x100 * master;
        bus.request(tx,
                    [&order, master](const TxResult &res) {
                        if (!res.aborted)
                            order.push_back(master);
                    });
    }
};

TEST(Arbitration, NamesRoundTrip)
{
    EXPECT_STREQ(arbitrationName(Arbitration::Fifo), "fifo");
    EXPECT_STREQ(arbitrationName(Arbitration::Priority), "priority");
    EXPECT_STREQ(arbitrationName(Arbitration::RoundRobin),
                 "round-robin");
    EXPECT_EQ(arbitrationFromName("fifo"), Arbitration::Fifo);
    EXPECT_EQ(arbitrationFromName("priority"), Arbitration::Priority);
    EXPECT_EQ(arbitrationFromName("rr"), Arbitration::RoundRobin);
    EXPECT_EQ(arbitrationFromName("round-robin"),
              Arbitration::RoundRobin);
    EXPECT_THROW(arbitrationFromName("lottery"), FatalError);
    // The default configuration is the seed's plain FIFO.
    EXPECT_EQ(ArbitrationConfig{}.discipline, Arbitration::Fifo);
    ArbitrationConfig bad;
    bad.discipline = Arbitration::Priority;
    bad.priorityLevels = 0;
    EXPECT_THROW(bad.check(), FatalError);
}

TEST(Arbitration, PriorityHigherLevelWinsWhileBusIsBusy)
{
    ArbFixture f;
    ArbitrationConfig arb;
    arb.discipline = Arbitration::Priority;
    arb.priorityLevels = 4;
    VmeBus bus(f.events, f.memory, arb);

    std::vector<std::uint32_t> order;
    // Master 0 (level 0) takes the bus; masters 1..3 (levels 1..3)
    // queue behind it. Non-preemptive: 0's transaction completes, then
    // the highest queued level is granted first.
    for (std::uint32_t id : {0u, 1u, 2u, 3u})
        ArbFixture::submit(bus, id, order);
    f.events.run();
    EXPECT_EQ(order,
              (std::vector<std::uint32_t>{0u, 3u, 2u, 1u}));
}

TEST(Arbitration, PrioritySameLevelKeepsArrivalOrder)
{
    ArbFixture f;
    ArbitrationConfig arb;
    arb.discipline = Arbitration::Priority;
    arb.priorityLevels = 4;
    VmeBus bus(f.events, f.memory, arb);

    // Masters 1, 5 and 9 all request on level 1 (id % 4); the
    // daisy-chain serves equals in arrival order.
    std::vector<std::uint32_t> order;
    for (std::uint32_t id : {0u, 9u, 5u, 1u})
        ArbFixture::submit(bus, id, order);
    f.events.run();
    EXPECT_EQ(order,
              (std::vector<std::uint32_t>{0u, 9u, 5u, 1u}));
}

TEST(Arbitration, PriorityMasterLevelOverride)
{
    ArbFixture f;
    ArbitrationConfig arb;
    arb.discipline = Arbitration::Priority;
    arb.priorityLevels = 4;
    VmeBus bus(f.events, f.memory, arb);

    // Promote master 1 from its default level 1 to level 3: it now
    // beats master 2 (level 2) in arbitration.
    bus.setMasterLevel(1, 3);
    EXPECT_EQ(bus.levelOf(1), 3u);
    EXPECT_EQ(bus.levelOf(2), 2u);

    std::vector<std::uint32_t> order;
    for (std::uint32_t id : {0u, 2u, 1u})
        ArbFixture::submit(bus, id, order);
    f.events.run();
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0u, 1u, 2u}));
}

TEST(Arbitration, PriorityLevelHistogramsSplitTheLoad)
{
    ArbFixture f;
    ArbitrationConfig arb;
    arb.discipline = Arbitration::Priority;
    arb.priorityLevels = 4;
    VmeBus bus(f.events, f.memory, arb);

    std::vector<std::uint32_t> order;
    // Several contention rounds: all four levels request at once.
    for (int round = 0; round < 8; ++round) {
        f.events.schedule(
            round * 10'000,
            [&bus, &order] {
                for (std::uint32_t id : {0u, 1u, 2u, 3u})
                    ArbFixture::submit(bus, id, order);
            },
            "round");
    }
    f.events.run();
    ASSERT_EQ(order.size(), 32u);
    // Every grant lands in exactly one per-level histogram...
    std::uint64_t grants = 0;
    for (unsigned l = 0; l < 4; ++l)
        grants += bus.grantsOfLevel(l).value();
    EXPECT_EQ(grants, 32u);
    EXPECT_EQ(bus.queueDelays().samples(), 32u);
    // ...and among the levels that actually queue (master 0 grabs the
    // idle bus each round, so level 0 never waits) the high level
    // waits less than the low one on average.
    EXPECT_LT(bus.queueDelaysOfLevel(3).mean(),
              bus.queueDelaysOfLevel(1).mean());
    // FIFO keeps no per-level split at all.
    VmeBus fifo(f.events, f.memory);
    EXPECT_THROW(fifo.grantsOfLevel(0), PanicError);
}

TEST(Arbitration, RoundRobinRotatesFromLastHolder)
{
    ArbFixture f;
    ArbitrationConfig arb;
    arb.discipline = Arbitration::RoundRobin;
    VmeBus bus(f.events, f.memory, arb);

    // Master 2 holds the bus; 0, 1 and 3 queue while it transfers.
    // The rotation grants the next id after the holder: 3, then 0,
    // then 1 — not FIFO arrival order.
    std::vector<std::uint32_t> order;
    for (std::uint32_t id : {2u, 1u, 0u, 3u})
        ArbFixture::submit(bus, id, order);
    f.events.run();
    EXPECT_EQ(order,
              (std::vector<std::uint32_t>{2u, 3u, 0u, 1u}));
}

TEST(Arbitration, RoundRobinPreventsBusCapture)
{
    ArbFixture f;
    ArbitrationConfig arb;
    arb.discipline = Arbitration::RoundRobin;
    VmeBus bus(f.events, f.memory, arb);

    // Master 0 resubmits the instant each of its transactions
    // completes — under FIFO-with-zero-latency-resubmit it could
    // capture the bus. Round-robin must interleave masters 1 and 2.
    std::vector<std::uint32_t> order;
    int remaining = 6;
    std::function<void()> pump = [&] {
        BusTransaction tx;
        tx.type = TxType::AssertOwnership;
        tx.requester = 0;
        bus.request(tx, [&](const TxResult &) {
            order.push_back(0);
            if (--remaining > 0)
                pump();
        });
    };
    pump();
    ArbFixture::submit(bus, 1, order);
    ArbFixture::submit(bus, 2, order);
    f.events.run();
    // Masters 1 and 2 are served before master 0's third grant.
    ASSERT_GE(order.size(), 4u);
    EXPECT_EQ(order[1], 1u);
    EXPECT_EQ(order[2], 2u);
    EXPECT_EQ(order[3], 0u);
}

TEST(Arbitration, AbortedThenRetriedSamplesCompletedDelayOnce)
{
    // Regression for the histogram split: an aborted-then-retried
    // transaction used to contribute one queue-delay sample per
    // *grant*, skewing the distribution during recovery storms. The
    // aborted attempt must land in abortedQueueDelays() and only the
    // final successful grant in queueDelays().
    ArbFixture f;
    VmeBus bus(f.events, f.memory);
    AbortingWatcher aborter;
    bus.attachWatcher(9, aborter);
    aborter.abortCount = 2;

    std::vector<std::uint8_t> buf(256, 0);
    BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.requester = 0;
    tx.paddr = 0x4000;
    tx.bytes = 256;
    tx.data = buf.data();

    int completions = 0;
    std::function<void()> issue = [&] {
        bus.request(tx, [&](const TxResult &res) {
            ++completions;
            if (res.aborted)
                issue(); // immediate retry, like the miss handler
        });
    };
    issue();
    f.events.run();

    EXPECT_EQ(completions, 3);
    EXPECT_EQ(bus.aborts().value(), 2u);
    EXPECT_EQ(bus.countOf(TxType::ReadShared).value(), 1u);
    EXPECT_EQ(bus.abortsOf(TxType::ReadShared).value(), 2u);
    // One completed-grant sample, two aborted-grant samples.
    EXPECT_EQ(bus.queueDelays().samples(), 1u);
    EXPECT_EQ(bus.abortedQueueDelays().samples(), 2u);
}

} // namespace
} // namespace vmp::mem

namespace vmp
{
namespace
{

core::RunResult
flatRun(std::uint32_t cpus, std::uint64_t refs_per_cpu, bool share_kernel,
        core::VmpSystem &sys)
{
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < cpus; ++i) {
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = refs_per_cpu;
        workload.seed = 1000 + i;
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        if (!share_kernel)
            workload.kernelOffset = static_cast<Addr>(i) * 0x20'0000;
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }
    return sys.runTraces(sources);
}

core::VmpConfig
flatConfig(std::uint32_t cpus, std::uint64_t cache_kib)
{
    core::VmpConfig cfg;
    cfg.processors = cpus;
    cfg.cache = cache::CacheConfig::forSize(KiB(cache_kib), 256, 4, true);
    cfg.memBytes = MiB(8);
    return cfg;
}

// The arbitration rework must leave the default discipline
// bit-identical to the seed simulator: same total elapsed ticks, same
// event counts, for the same seeds. These constants are the seed
// fingerprints; any timing-visible change to the FIFO path moves them.

TEST(FifoFingerprint, FlatPartitionedWorkload)
{
    setInformEnabled(false);
    core::VmpSystem sys(flatConfig(4, 64));
    const auto r = flatRun(4, 20'000, false, sys);
    EXPECT_EQ(r.elapsed, 11'702'800u);
    EXPECT_EQ(r.totalRefs, 80'000u);
    EXPECT_EQ(r.totalMisses, 852u);
    EXPECT_EQ(r.busAborts, 0u);
    EXPECT_EQ(r.writeBacks, 3u);
    EXPECT_EQ(sys.root().bus.transactions().value(), 855u);
    EXPECT_EQ(sys.root().bus.queueDelays().samples(), 855u);
    EXPECT_EQ(sys.root().bus.abortedQueueDelays().samples(), 0u);
}

TEST(FifoFingerprint, FlatSharedKernelWorkload)
{
    setInformEnabled(false);
    core::VmpSystem sys(flatConfig(4, 16));
    const auto r = flatRun(4, 20'000, true, sys);
    EXPECT_EQ(r.elapsed, 23'979'131u);
    EXPECT_EQ(r.totalRefs, 80'000u);
    EXPECT_EQ(r.totalMisses, 2'098u);
    EXPECT_EQ(r.busAborts, 504u);
    EXPECT_EQ(r.writeBacks, 465u);
    EXPECT_EQ(sys.root().bus.transactions().value(), 3'661u);
    // Completed-only histogram: 3661 completed grants minus the 504
    // one-short-transaction aborts that sample the aborted histogram.
    EXPECT_EQ(sys.root().bus.queueDelays().samples(), 3'157u);
    EXPECT_EQ(sys.root().bus.abortedQueueDelays().samples(), 504u);
}

TEST(FifoFingerprint, HierTwoByTwo)
{
    setInformEnabled(false);
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig::forSize(KiB(16), 256, 4, true);
    cfg.memBytes = MiB(8);
    core::HierVmpSystem sys(cfg);
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < 4; ++i) {
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = 10'000;
        workload.seed = 1000 + i;
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        workload.kernelOffset = static_cast<Addr>(i) * 0x20'0000;
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }
    const auto r = sys.runTraces(sources);
    EXPECT_EQ(r.elapsed, 13'379'061u);
    EXPECT_EQ(r.totalRefs, 40'000u);
    EXPECT_EQ(r.totalMisses, 952u);
    EXPECT_EQ(r.globalFetches, 522u);
    EXPECT_EQ(r.globalWriteBacks, 0u);
}

// One kernel image across every cluster (kernelOffset 0), so kernel
// pages cross clusters: global fetches, cluster-to-cluster recalls and
// global-bus aborts all land on the pinned counts. HierTwoByTwo and
// simbench's hier4x4 give each CPU a private kernel, so no page of
// theirs is ever held by two clusters.
TEST(FifoFingerprint, HierSharedKernelAcrossClusters)
{
    setInformEnabled(false);
    core::HierConfig cfg;
    cfg.clusters = 4;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig::forSize(KiB(16), 256, 4, true);
    cfg.memBytes = MiB(8);
    core::HierVmpSystem sys(cfg);
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < 8; ++i) {
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = 10'000;
        workload.seed = 1000 + i;
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }
    const auto r = sys.runTraces(sources);
    EXPECT_EQ(r.elapsed, 77'653'237u);
    EXPECT_EQ(r.totalRefs, 80'000u);
    EXPECT_EQ(r.totalMisses, 2'911u);
    EXPECT_EQ(r.globalFetches, 5'460u);
    EXPECT_EQ(r.globalWriteBacks, 256u);
    EXPECT_EQ(r.busAborts, 10'402u);
    const std::uint64_t cluster_tx[] = {9'065u, 8'861u, 8'577u, 8'953u};
    for (std::size_t k = 0; k < 4; ++k)
        EXPECT_EQ(sys.cluster(k).bus.transactions().value(), cluster_tx[k])
            << "cluster " << k;
}

TEST(DisciplineSweep, PartitionedMissesAreDisciplineInvariant)
{
    // On partitioned workloads no transaction is ever aborted, so the
    // reference streams and their miss counts cannot depend on who
    // wins arbitration — only the waiting (and thus elapsed time)
    // can. A discipline that changed the miss count would be moving
    // architected state.
    setInformEnabled(false);
    for (const mem::Arbitration discipline :
         {mem::Arbitration::Priority, mem::Arbitration::RoundRobin}) {
        auto cfg = flatConfig(4, 64);
        cfg.arbitration.discipline = discipline;
        core::VmpSystem sys(cfg);
        const auto r = flatRun(4, 20'000, false, sys);
        EXPECT_EQ(r.totalRefs, 80'000u) << arbitrationName(discipline);
        EXPECT_EQ(r.totalMisses, 852u) << arbitrationName(discipline);
        EXPECT_EQ(r.busAborts, 0u) << arbitrationName(discipline);
        EXPECT_GT(r.elapsed, 0u);
    }
}

} // namespace
} // namespace vmp
