/**
 * @file
 * Property tests for the two-level bus hierarchy (HierVmpSystem +
 * InterBusBoard): two-state legality must hold *per level* — within a
 * cluster at most one processor holds a frame Private and only while
 * its cluster owns the frame, and across clusters at most one
 * inter-bus board holds the cluster-level Protect entry. Memory
 * mutations at both levels must be exactly the successful write-backs
 * on the corresponding bus, cross-cluster word-level sharing must stay
 * exact under frame migration, and heavily shared workloads must run
 * to completion (deadlock freedom) even under adversarial FIFO sizes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hier_system.hh"
#include "fault/injector.hh"
#include "mem/bus_types.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace vmp
{
namespace
{

/**
 * Two-state legality per level, checked frame by frame:
 *  - within each cluster, at most one processor Private;
 *  - a processor Private copy implies its cluster holds Protect;
 *  - a processor Shared copy implies its cluster holds the frame;
 *  - across clusters, at most one cluster-level Protect.
 */
void
expectTwoLevelInvariant(core::HierVmpSystem &system)
{
    const auto &cfg = system.config();
    const std::uint64_t frames = cfg.memBytes / cfg.cache.pageBytes;
    for (std::uint64_t frame = 0; frame < frames; ++frame) {
        const Addr pa = frame * cfg.cache.pageBytes;
        unsigned cluster_owners = 0;
        for (std::uint32_t k = 0; k < cfg.clusters; ++k) {
            const auto state = system.cluster(k).bridge->clusterState(pa);
            if (state == mem::ActionEntry::Protect)
                ++cluster_owners;
            unsigned local_owners = 0;
            for (std::uint32_t i = 0; i < cfg.cpusPerCluster; ++i) {
                const auto cpu = k * cfg.cpusPerCluster + i;
                const auto *info = system.controller(cpu).frameInfo(pa);
                if (info == nullptr)
                    continue;
                if (info->state == proto::FrameState::Private) {
                    ++local_owners;
                    EXPECT_EQ(state, mem::ActionEntry::Protect)
                        << "cpu " << cpu << " holds frame " << frame
                        << " Private but cluster " << k
                        << " does not own it";
                } else {
                    EXPECT_NE(state, mem::ActionEntry::Ignore)
                        << "cpu " << cpu << " caches frame " << frame
                        << " but cluster " << k << " is absent";
                }
            }
            ASSERT_LE(local_owners, 1u)
                << "cluster " << k << " frame " << frame;
        }
        ASSERT_LE(cluster_owners, 1u) << "frame " << frame;
    }
}

/**
 * Mutation accounting per level: main memory changes only via
 * successful global-bus write-backs, each cluster image only via
 * successful local-bus write-backs (global fetches install through
 * initBlock, which is counted separately).
 */
void
expectTwoLevelWriteInvariant(core::HierVmpSystem &system)
{
    const auto &gbus = system.root().bus;
    const std::uint64_t global_expected =
        gbus.countOf(mem::TxType::WriteBack).value() +
        gbus.countOf(mem::TxType::DmaWrite).value();
    EXPECT_EQ(system.memory().writes().value(), global_expected);

    for (std::uint32_t k = 0; k < system.config().clusters; ++k) {
        const auto &bus = system.cluster(k).bus;
        const std::uint64_t local_expected =
            bus.countOf(mem::TxType::WriteBack).value() +
            bus.countOf(mem::TxType::DmaWrite).value();
        EXPECT_EQ(system.cluster(k).memory.writes().value(), local_expected)
            << "cluster " << k;
    }
}

trace::SyntheticConfig
sharedKernelWorkload(std::uint64_t refs, std::uint64_t seed)
{
    auto workload = trace::workloadConfig("atum3");
    workload.totalRefs = refs;
    workload.seed = seed;
    return workload;
}

// ------------------------------------------------------- configuration

TEST(HierConfig, RejectsBadShapes)
{
    core::HierConfig cfg;
    cfg.clusters = 0;
    EXPECT_THROW(core::HierVmpSystem{cfg}, FatalError);
    cfg = {};
    cfg.cpusPerCluster = 9;
    EXPECT_THROW(core::HierVmpSystem{cfg}, FatalError);
    cfg = {};
    cfg.memBytes = cfg.cache.pageBytes * 3 + 1;
    EXPECT_THROW(core::HierVmpSystem{cfg}, FatalError);
    cfg = {};
    cfg.ibcFifoCapacity = 0;
    EXPECT_THROW(core::HierVmpSystem{cfg}, FatalError);
}

TEST(HierConfig, FlatIndexMapsClusterMajor)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.memBytes = MiB(1);
    core::HierVmpSystem system(cfg);
    EXPECT_EQ(system.config().totalCpus(), 4u);
    // CPU 3 must live on cluster 1's bus, not cluster 0's: a cached
    // read through its controller misses onto local bus 1 only.
    bool done = false;
    system.controller(3).readWord(1, trace::kernelBase + 0x100, true,
                                  [&](std::uint32_t) { done = true; });
    system.events().run();
    ASSERT_TRUE(done);
    EXPECT_GT(system.cluster(1).bus.countOf(mem::TxType::ReadShared)
                  .value(), 0u);
    EXPECT_EQ(system.cluster(0).bus.countOf(mem::TxType::ReadShared)
                  .value(), 0u);
}

// -------------------------------------------------- shared-trace runs

TEST(HierSystem, SharedKernelTracesKeepInvariants)
{
    core::HierConfig cfg;
    cfg.clusters = 4;
    cfg.cpusPerCluster = 4;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(2);
    core::HierVmpSystem system(cfg);

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < 16; ++i) {
        // Shared kernel image across *all* clusters: forces
        // cross-cluster ownership migration through the boards.
        gens.push_back(std::make_unique<trace::SyntheticGen>(
            sharedKernelWorkload(8'000, 500 + i)));
        sources.push_back(gens.back().get());
    }
    const auto result = system.runTraces(sources);
    EXPECT_EQ(result.totalRefs, 128'000u);
    EXPECT_GT(result.globalFetches, 0u);
    EXPECT_GT(result.globalWriteBacks, 0u);

    EXPECT_TRUE(system.quiesce());
    expectTwoLevelInvariant(system);
    expectTwoLevelWriteInvariant(system);
}

TEST(HierSystem, PartitionedWorkloadsStayMostlyLocal)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 32, true};
    cfg.memBytes = MiB(4);
    core::HierVmpSystem system(cfg);

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < 4; ++i) {
        auto workload = sharedKernelWorkload(10'000, 700 + i);
        // Disjoint kernel images and ASIDs: no cross-CPU sharing at
        // all, so after cold fetches the global bus should go quiet.
        workload.kernelOffset = Addr(i) * 0x8'0000;
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }
    const auto result = system.runTraces(sources);
    EXPECT_EQ(result.totalRefs, 40'000u);

    // Every global fetch is a cold cluster miss; no invalidations or
    // recalls should have happened between clusters.
    for (std::uint32_t k = 0; k < 2; ++k) {
        EXPECT_EQ(system.cluster(k).bridge->invalidates().value(), 0u)
            << "cluster " << k;
        EXPECT_EQ(system.cluster(k).bridge->downgrades().value(), 0u)
            << "cluster " << k;
    }
    EXPECT_LT(result.busUtilization, result.meanLocalBusUtilization);

    EXPECT_TRUE(system.quiesce());
    expectTwoLevelInvariant(system);
    expectTwoLevelWriteInvariant(system);
}

// --------------------------------------- cross-cluster exact sharing

/** Each CPU increments its own word of one shared frame: DRF at word
 *  granularity, maximal false sharing at frame granularity. */
cpu::Program
wordIncrementer(Addr word_pa, std::uint32_t rounds)
{
    using namespace vmp::cpu;
    Program program;
    for (std::uint32_t r = 0; r < rounds; ++r) {
        program.push_back(opRead(word_pa, 1));
        program.push_back(opAddImm(1, 1));
        program.push_back(opWrite(word_pa, 1));
    }
    program.push_back(opHalt());
    return program;
}

TEST(HierSystem, FalseSharingAcrossClustersIsExact)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{128, 2, 8, true}; // tiny
    cfg.memBytes = MiB(1);
    core::HierVmpSystem system(cfg);

    constexpr std::uint32_t kRounds = 25;
    const Addr frame_base = trace::kernelBase + 0x4000;
    std::vector<cpu::Program> programs;
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu)
        programs.push_back(wordIncrementer(
            frame_base + Addr(cpu) * 4, kRounds));

    const auto cpus = system.runPrograms(programs);
    EXPECT_TRUE(system.quiesce());

    for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
        std::uint32_t value = 0;
        bool done = false;
        system.controller(0).readWord(
            1, frame_base + Addr(cpu) * 4, true,
            [&](std::uint32_t v) {
                value = v;
                done = true;
            });
        system.events().run();
        ASSERT_TRUE(done);
        EXPECT_EQ(value, kRounds) << "cpu " << cpu << "'s word";
    }
    // The frame really migrated between clusters.
    EXPECT_GT(system.cluster(0).bridge->invalidates().value() +
                  system.cluster(0).bridge->downgrades().value() +
                  system.cluster(1).bridge->invalidates().value() +
                  system.cluster(1).bridge->downgrades().value(),
              0u);
    expectTwoLevelInvariant(system);
    expectTwoLevelWriteInvariant(system);
}

// ------------------------------------------- adversarial FIFO sizing

TEST(HierSystem, TinyFifosStillCompleteAndStayCoherent)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 3;
    cfg.cache = cache::CacheConfig{128, 2, 8, true};
    cfg.memBytes = MiB(1);
    cfg.fifoCapacity = 2;
    cfg.ibcFifoCapacity = 2; // forces overflow recoveries
    core::HierVmpSystem system(cfg);

    constexpr std::uint32_t kRounds = 15;
    const Addr frame_base = trace::kernelBase + 0x8000;
    std::vector<cpu::Program> programs;
    for (std::uint32_t cpu = 0; cpu < 6; ++cpu)
        programs.push_back(wordIncrementer(
            frame_base + Addr(cpu) * 4, kRounds));

    // Completion of runPrograms *is* the deadlock-freedom check: a
    // lost wakeup or cross-cluster wait cycle would leave the event
    // queue empty with CPUs stalled, and runPrograms would panic.
    const auto cpus = system.runPrograms(programs);
    EXPECT_TRUE(system.quiesce());

    // The only fault-free run that reaches IBC global-FIFO overflow
    // recovery: pin its IBC timing exactly.
    struct IbcPins
    {
        std::uint64_t overflowRecoveries, recalls, globalWriteBacks,
            retries, downgrades, invalidates;
    };
    const IbcPins pins[2] = {{4, 99, 33, 180, 23, 74},
                             {4, 88, 33, 184, 16, 72}};
    for (std::size_t k = 0; k < 2; ++k) {
        const auto &ibc = *system.cluster(k).bridge;
        EXPECT_EQ(ibc.overflowRecoveries().value(),
                  pins[k].overflowRecoveries) << "ibc " << k;
        EXPECT_EQ(ibc.recalls().value(), pins[k].recalls) << "ibc " << k;
        EXPECT_EQ(ibc.globalWriteBacks().value(), pins[k].globalWriteBacks)
            << "ibc " << k;
        EXPECT_EQ(ibc.retries().value(), pins[k].retries) << "ibc " << k;
        EXPECT_EQ(ibc.downgrades().value(), pins[k].downgrades)
            << "ibc " << k;
        EXPECT_EQ(ibc.invalidates().value(), pins[k].invalidates)
            << "ibc " << k;
    }
    EXPECT_EQ(system.events().now(), 3'164'673u);
    EXPECT_EQ(system.events().dispatched(), 6'581u);

    for (std::uint32_t cpu = 0; cpu < 6; ++cpu) {
        std::uint32_t value = 0;
        bool done = false;
        system.controller(0).readWord(
            1, frame_base + Addr(cpu) * 4, true,
            [&](std::uint32_t v) {
                value = v;
                done = true;
            });
        system.events().run();
        ASSERT_TRUE(done);
        EXPECT_EQ(value, kRounds) << "cpu " << cpu << "'s word";
    }
    expectTwoLevelInvariant(system);
    expectTwoLevelWriteInvariant(system);
}

// ------------------------------------------------ watchdog on IBCs

TEST(HierSystem, InterBusBoardTakesTheMachineSoftwareTiming)
{
    // The machine's dead-owner deadline reaches every processor's
    // controller but no inter-bus board: their retry loops never
    // abandon.
    core::HierConfig cfg;
    cfg.deadOwnerTimeoutNs = msec(1);
    core::HierVmpSystem system(cfg);
    for (std::uint32_t k = 0; k < cfg.clusters; ++k)
        EXPECT_EQ(system.cluster(k).bridge->deadOwnerTimeoutNs(), 0u);
    for (std::uint32_t cpu = 0; cpu < cfg.totalCpus(); ++cpu)
        EXPECT_EQ(system.controller(cpu).deadOwnerTimeoutNs(), msec(1));
}

TEST(HierSystem, WatchdogReachesInterBusBoardFetchLoop)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 1;
    cfg.cache = cache::CacheConfig{128, 2, 8, true};
    cfg.memBytes = MiB(1);
    core::HierVmpSystem system(cfg);

    // Cluster 0 writes a word: IBC 0 fetches the frame exclusively and
    // its global table holds Protect.
    bool written = false;
    system.controller(0).writeWord(1, trace::kernelBase + 0x8000, 7, true,
                                   [&] { written = true; });
    system.events().run();
    ASSERT_TRUE(written);
    ASSERT_EQ(system.controller(0).frameTable().size(), 1u);
    const Addr paddr = system.controller(0).frameTable().begin()->first *
        cfg.cache.pageBytes;
    ASSERT_EQ(system.cluster(0).bridge->globalMonitor().table().entryFor(
                  paddr),
              mem::ActionEntry::Protect);

    // IBC 0 wedges with the entry held, so it never releases it.
    system.cluster(0).bridge->setWedged(true);
    std::vector<proto::WatchdogReport> reports;
    system.setWatchdog(5, [&](const proto::WatchdogReport &report) {
        reports.push_back(report);
    });

    // One read on cluster 1's bus from a master that never retries:
    // IBC 1 aborts it and keeps retrying its global fetch.
    std::vector<std::uint8_t> buffer(cfg.cache.pageBytes);
    mem::BusTransaction tx;
    tx.type = mem::TxType::ReadShared;
    tx.requester = 60;
    tx.paddr = paddr;
    tx.bytes = cfg.cache.pageBytes;
    tx.data = buffer.data();
    bool aborted = false;
    system.cluster(1).bus.request(
        tx, [&](const mem::TxResult &res) { aborted = res.aborted; });
    system.events().run(system.events().now() + msec(2));

    EXPECT_TRUE(aborted);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(std::string(reports[0].client), "ibc");
    EXPECT_EQ(reports[0].cpu, 1u);
    EXPECT_EQ(reports[0].operation, "fetch");
    EXPECT_EQ(reports[0].attempts, 6u);
    EXPECT_EQ(reports[0].paddr, paddr);
    EXPECT_EQ(reports[0].toString().rfind("ibc1 fetch starved: 6", 0), 0u)
        << reports[0].toString();
    EXPECT_EQ(system.cluster(1).bridge->watchdogTrips().value(), 1u);
    // The watchdog only observes: the loop kept retrying.
    EXPECT_GT(system.cluster(1).bridge->retries().value(), 6u);
    EXPECT_EQ(system.cluster(1).bridge->globalFetches(), 0u);
}

// ----------------------------------------------------------- statistics

/** Stat-group names in the order their lines first appear in a
 *  dumpStats() text (each line is "<group>.<stat> ..."). */
std::vector<std::string>
dumpGroupOrder(const std::string &text,
               const std::vector<std::string> &groups)
{
    std::vector<std::string> order;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        std::string best;
        for (const auto &g : groups) {
            if (line.compare(0, g.size() + 1, g + ".") == 0 &&
                g.size() > best.size())
                best = g;
        }
        if (!best.empty() && (order.empty() || order.back() != best))
            order.push_back(best);
    }
    return order;
}

TEST(HierSystem, StatsMentionEveryLevel)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::HierVmpSystem system(cfg);
    fault::FaultSchedule schedule;
    schedule.seed = 7;
    schedule.busAborts(0.01);
    system.enableFaultInjection(schedule);
    system.enableCoherenceCheckers();
    system.enableRecovery();
    system.enableFrameCheckpoint();
    system.enableTracing();

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < 4; ++i) {
        gens.push_back(std::make_unique<trace::SyntheticGen>(
            sharedKernelWorkload(5'000, 40 + i)));
        sources.push_back(gens.back().get());
    }
    system.runTraces(sources);

    std::ostringstream os;
    system.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("global_bus.transactions"), std::string::npos);
    EXPECT_NE(out.find("c0.bus.transactions"), std::string::npos);
    EXPECT_NE(out.find("c1.ibc.global_write_backs"),
              std::string::npos);
    EXPECT_NE(out.find("cpu3.misses"), std::string::npos);

    const auto json = system.statsJson();
    const auto text = json.dump();
    EXPECT_NE(text.find("\"c0.ibc\""), std::string::npos);
    EXPECT_NE(text.find("\"cpu3\""), std::string::npos);

    // The full layout with every subsystem armed, in order.
    const std::vector<std::string> groups = {
        "global_bus", "c0.bus",        "c0.ibc",       "cpu0",
        "cpu1",       "c1.bus",        "c1.ibc",       "cpu2",
        "cpu3",       "fault",         "c0.check",     "c1.check",
        "check.global", "c0.recover",  "c1.recover",   "recover.global",
        "c0.backing", "c1.backing",    "backing.global", "obs"};
    std::vector<std::string> json_groups;
    for (const auto &member : json.members())
        json_groups.push_back(member.first);
    EXPECT_EQ(json_groups, groups);
    EXPECT_EQ(dumpGroupOrder(out, groups), groups);

    const std::vector<std::string> tracks = {
        "global_bus", "c0.bus", "c0.ibc", "cpu0",   "cpu1",
        "c1.bus",     "c1.ibc", "cpu2",   "cpu3",   "recover"};
    std::vector<std::string> track_names;
    for (std::uint16_t i = 0; i < system.tracer()->trackCount(); ++i)
        track_names.push_back(system.tracer()->trackName(i));
    EXPECT_EQ(track_names, tracks);
}

} // namespace
} // namespace vmp
