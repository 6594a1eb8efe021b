/**
 * @file
 * System-level integration tests: whole-machine configuration, multi-
 * processor trace runs, scripted-program coherence (parallel counters
 * under a lock), the fast functional simulator used for Figure 4, and
 * end-to-end protocol invariants.
 */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fast_sim.hh"
#include "core/hier_system.hh"
#include "core/system.hh"
#include "cpu/program.hh"
#include "recover/recovery.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace vmp::core
{
namespace
{

VmpConfig
smallConfig(std::uint32_t processors)
{
    VmpConfig cfg;
    cfg.processors = processors;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    return cfg;
}

trace::SyntheticConfig
tinyWorkload(std::uint64_t refs, std::uint64_t seed)
{
    auto cfg = trace::workloadConfig("atum2");
    cfg.totalRefs = refs;
    cfg.seed = seed;
    return cfg;
}

// --------------------------------------------------------- VmpSystem

TEST(VmpSystem, ConfigValidation)
{
    VmpConfig cfg = smallConfig(0);
    EXPECT_THROW(VmpSystem{cfg}, FatalError);
    cfg = smallConfig(1);
    cfg.memBytes = 1000;
    EXPECT_THROW(VmpSystem{cfg}, FatalError);
    cfg = smallConfig(1);
    cfg.fifoCapacity = 0;
    EXPECT_THROW(VmpSystem{cfg}, FatalError);
}

TEST(VmpSystem, SingleCpuTraceRun)
{
    VmpSystem system(smallConfig(1));
    trace::SyntheticGen gen(tinyWorkload(20'000, 7));
    const auto result = system.runTraces({&gen});
    EXPECT_EQ(result.totalRefs, 20'000u);
    EXPECT_GT(result.totalMisses, 0u);
    EXPECT_GT(result.missRatio, 0.0);
    EXPECT_LT(result.missRatio, 0.2);
    EXPECT_GT(result.performance, 0.05);
    EXPECT_LE(result.performance, 1.0);
    EXPECT_GT(result.busUtilization, 0.0);
    EXPECT_LT(result.busUtilization, 1.0);
    EXPECT_FALSE(result.toString().empty());
}

TEST(VmpSystem, TooManyTracesRejected)
{
    VmpSystem system(smallConfig(1));
    trace::VectorRefSource a({}), b({});
    EXPECT_THROW(system.runTraces({&a, &b}), FatalError);
}

TEST(VmpSystem, IsOneDomainWithoutClusters)
{
    // A flat machine is its root domain alone: no cluster index is in
    // range and no inter-bus board can be killed.
    VmpSystem system(smallConfig(2));
    ASSERT_EQ(system.domainCount(), 1u);
    EXPECT_EQ(system.root().boards.size(), 2u);
    EXPECT_THROW(system.cluster(0), PanicError);
    EXPECT_THROW(system.killInterBusBoard(0, usec(10)), FatalError);
}

// Observers read a const Machine (telemetry's collectors), and its
// domains hand out only const clients, so they can only observe.
template <typename Ptr>
constexpr bool pointsToConst =
    std::is_const_v<std::remove_pointer_t<Ptr>>;
using ConstDomain = const BusDomain &;
static_assert(pointsToConst<decltype(
                  std::declval<ConstDomain>().bridge.get())>);
static_assert(pointsToConst<decltype(
                  std::declval<ConstDomain>().boards[0].get())>);
static_assert(pointsToConst<decltype(
                  std::declval<ConstDomain>().checker.get())>);
static_assert(pointsToConst<decltype(
                  std::declval<ConstDomain>().recovery.get())>);
static_assert(!pointsToConst<decltype(
                  std::declval<BusDomain &>().bridge.get())>);

TEST(VmpSystem, MultiCpuRunSharesKernelPages)
{
    VmpSystem system(smallConfig(2));
    trace::SyntheticGen gen0(tinyWorkload(15'000, 11));
    trace::SyntheticGen gen1(tinyWorkload(15'000, 22));
    const auto result = system.runTraces({&gen0, &gen1});
    EXPECT_EQ(result.totalRefs, 30'000u);
    // Kernel pages are physically shared across CPUs, so consistency
    // transactions must have occurred.
    EXPECT_GT(system.root().bus.countOf(mem::TxType::ReadShared).value() +
                  system.root().bus.countOf(mem::TxType::ReadPrivate).value(),
              0u);
}

TEST(VmpSystem, WriteBackOnlyMemoryMutation)
{
    VmpSystem system(smallConfig(2));
    trace::SyntheticGen gen0(tinyWorkload(10'000, 31));
    trace::SyntheticGen gen1(tinyWorkload(10'000, 32));
    system.runTraces({&gen0, &gen1});
    // Every memory mutation is a *successful* write-back transaction.
    EXPECT_EQ(system.memory().writes().value(),
              system.root().bus.countOf(mem::TxType::WriteBack).value());
}

TEST(VmpSystem, MoreProcessorsRaiseBusUtilization)
{
    double util1 = 0, util4 = 0;
    {
        VmpSystem system(smallConfig(1));
        trace::SyntheticGen gen(tinyWorkload(15'000, 5));
        util1 = system.runTraces({&gen}).busUtilization;
    }
    {
        VmpSystem system(smallConfig(4));
        trace::SyntheticGen g0(tinyWorkload(15'000, 5));
        trace::SyntheticGen g1(tinyWorkload(15'000, 6));
        trace::SyntheticGen g2(tinyWorkload(15'000, 7));
        trace::SyntheticGen g3(tinyWorkload(15'000, 8));
        util4 = system.runTraces({&g0, &g1, &g2, &g3}).busUtilization;
    }
    EXPECT_GT(util4, util1);
}

// ----------------------------------------------------- program runs

TEST(VmpSystem, ParallelCountersWithUncachedLock)
{
    // Classic coherence acid test: N CPUs increment a shared counter
    // ITERS times each under an uncached test-and-set lock. The final
    // value must be exact.
    constexpr std::uint32_t iters = 25;
    constexpr std::uint32_t cpus = 3;
    const Addr lock_pa = 0x0; // uncached physical lock
    // Shared counter in kernel space (one frame across ASIDs).
    const Addr counter_va = trace::kernelBase + 0x40;

    const cpu::Program worker = {
        /*0*/ cpu::opMoveImm(1, iters),
        // acquire:
        /*1*/ cpu::opUncachedTas(lock_pa, 0),
        /*2*/ cpu::opBranchIfNotZero(0, 1),
        // critical section:
        /*3*/ cpu::opRead(counter_va, 2),
        /*4*/ cpu::opAddImm(2, 1),
        /*5*/ cpu::opWrite(counter_va, 2),
        // release:
        /*6*/ cpu::opUncachedWrite(lock_pa, 0),
        /*7*/ cpu::opDecBranchNotZero(1, 1),
        /*8*/ cpu::opHalt(),
    };

    VmpConfig cfg = smallConfig(cpus);
    VmpSystem system(cfg);
    const auto programs =
        std::vector<cpu::Program>(cpus, worker);
    // Keep the CPUs alive: halted processors still service their bus
    // monitors, which the final read below relies on.
    const auto cpu_objs = system.runPrograms(programs);

    // Read the final value through any CPU.
    std::uint32_t final_value = 0;
    bool done = false;
    system.controller(0).readWord(1, counter_va, true,
                                  [&](std::uint32_t v) {
                                      final_value = v;
                                      done = true;
                                  });
    system.events().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(final_value, iters * cpus);
}

TEST(VmpSystem, CachedSpinLockAlsoCorrectButCausesTraffic)
{
    // Test-and-set on *cached* memory: correct, but each contender
    // drags the lock's page around — the Section 5.4 thrashing story.
    constexpr std::uint32_t iters = 10;
    constexpr std::uint32_t cpus = 2;
    const Addr lock_va = trace::kernelBase + 0x1000;
    const Addr counter_va = trace::kernelBase + 0x2000;

    const cpu::Program worker = {
        /*0*/ cpu::opMoveImm(1, iters),
        // acquire (cached TAS spin):
        /*1*/ cpu::opCachedTas(lock_va, 0),
        /*2*/ cpu::opBranchIfNotZero(0, 1),
        // critical section:
        /*3*/ cpu::opRead(counter_va, 2),
        /*4*/ cpu::opAddImm(2, 1),
        /*5*/ cpu::opWrite(counter_va, 2),
        // release:
        /*6*/ cpu::opWriteImm(lock_va, 0),
        /*7*/ cpu::opDecBranchNotZero(1, 1),
        /*8*/ cpu::opHalt(),
    };

    VmpSystem system(smallConfig(cpus));
    const auto cpu_objs =
        system.runPrograms(std::vector<cpu::Program>(cpus, worker));

    std::uint32_t final_value = 0;
    system.controller(0).readWord(1, counter_va, true,
                                  [&](std::uint32_t v) {
                                      final_value = v;
                                  });
    system.events().run();
    EXPECT_EQ(final_value, iters * cpus);
    // Ownership of the lock page ping-ponged.
    EXPECT_GT(system.root().bus.countOf(mem::TxType::ReadPrivate).value() +
                  system.root().bus
                      .countOf(mem::TxType::AssertOwnership)
                      .value(),
              2 * iters);
}

TEST(VmpSystem, ProgramsInDistinctPagesDontInterfere)
{
    const cpu::Program p0 = {
        cpu::opWriteImm(trace::userBase + 0x0, 100),
        cpu::opRead(trace::userBase + 0x0, 0),
        cpu::opHalt(),
    };
    const cpu::Program p1 = {
        cpu::opWriteImm(trace::userBase + 0x0, 200),
        cpu::opRead(trace::userBase + 0x0, 0),
        cpu::opHalt(),
    };
    VmpSystem system(smallConfig(2));
    const auto cpus = system.runPrograms({p0, p1});
    // Same virtual address but different ASIDs: distinct frames.
    EXPECT_EQ(cpus[0]->reg(0), 100u);
    EXPECT_EQ(cpus[1]->reg(0), 200u);
}

// ------------------------------------------ batched hit retirement

/**
 * Forwards a reference source, counting fetches and noting the tick of
 * the first one. TraceCpu::run() fetches the first reference before
 * returning, so that tick is the CPU's startedAt().
 */
class FetchProbe : public trace::RefSource
{
  public:
    FetchProbe(const EventQueue &events, trace::RefSource &inner)
        : events_(events), inner_(inner)
    {}

    bool
    next(trace::MemRef &ref) override
    {
        if (fetches_++ == 0)
            firstFetch_ = events_.now();
        return inner_.next(ref);
    }

    Tick firstFetch() const { return firstFetch_; }
    /** Calls to next(), including a final one at exhaustion. */
    std::uint64_t fetches() const { return fetches_; }

  private:
    const EventQueue &events_;
    trace::RefSource &inner_;
    Tick firstFetch_ = maxTick;
    std::uint64_t fetches_ = 0;
};

/** Probed synthetic sources, one per CPU, with private kernels. */
struct ProbedSources
{
    ProbedSources(const EventQueue &events, std::uint32_t cpus,
                  std::uint64_t refs)
    {
        for (std::uint32_t i = 0; i < cpus; ++i) {
            auto cfg = tinyWorkload(refs, 300 + i);
            cfg.asidBase = static_cast<Asid>(1 + i * 8);
            cfg.kernelOffset = static_cast<Addr>(i) * 0x4'0000;
            gens.push_back(std::make_unique<trace::SyntheticGen>(cfg));
            probes.push_back(
                std::make_unique<FetchProbe>(events, *gens.back()));
            raw.push_back(probes.back().get());
        }
    }

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<std::unique_ptr<FetchProbe>> probes;
    std::vector<trace::RefSource *> raw;
};

TEST(InlineHits, EveryFlatCpuStartsAtTickZero)
{
    // Hits are batched only at the tail of the CPU's own event; the
    // start-up path always schedules, so no CPU can run ahead before
    // the others have started.
    VmpSystem system(smallConfig(4));
    ProbedSources sources(system.events(), 4, 5'000);
    const auto result = system.runTraces(sources.raw);
    EXPECT_EQ(result.totalRefs, 20'000u);
    for (const auto &probe : sources.probes)
        EXPECT_EQ(probe->firstFetch(), 0u);
    // Pinned from the one-event-per-reference queue.
    EXPECT_EQ(result.elapsed, 7'401'450u);
    // Lookahead batches retire most hits without an event of their
    // own: 10,068 events for 20,000 references, 3,444 of them the 817
    // misses' heap events, which bound every batch they fall in.
    EXPECT_LE(static_cast<double>(system.events().dispatched()),
              0.55 * static_cast<double>(result.totalRefs));
}

TEST(InlineHits, EveryHierCpuStartsAtTickZero)
{
    HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(2);
    HierVmpSystem system(cfg);
    ProbedSources sources(system.events(), 4, 5'000);
    const auto result = system.runTraces(sources.raw);
    EXPECT_EQ(result.totalRefs, 20'000u);
    for (const auto &probe : sources.probes)
        EXPECT_EQ(probe->firstFetch(), 0u);
    EXPECT_EQ(result.elapsed, 9'882'733u);
}

TEST(TraceCpuLanes, RepeatedRunsReuseTheRegistry)
{
    // Each run's TraceCpus register one lane apiece and remove it when
    // they are destroyed, so back-to-back runs reuse the same indices.
    VmpSystem system(smallConfig(4));
    for (int run = 0; run < 3; ++run) {
        ProbedSources sources(system.events(), 4, 1'000);
        EXPECT_EQ(system.runTraces(sources.raw).totalRefs, 4'000u);
        EXPECT_EQ(system.events().laneCapacity(), 4u);
        EXPECT_EQ(system.events().pending(), 0u);
    }
}

TEST(InlineHits, KilledBoardHaltsAtTheSameReference)
{
    // A failstop requested by another event lands at the same
    // instruction boundary whether the hits before it were retired by
    // events or in a batch: the kill event closes the batch window.
    VmpSystem system(smallConfig(4));
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 64;
    system.enableRecovery(rc);
    system.killBoard(3, usec(300));
    ProbedSources sources(system.events(), 4, 12'000);
    const auto result = system.runTraces(sources.raw);
    EXPECT_TRUE(system.controller(3).dead());
    // The survivors retire their whole traces; the dead board fetched
    // exactly the references it retired. Counts pinned from the
    // one-event-per-reference queue.
    EXPECT_EQ(sources.probes[3]->fetches(), 130u);
    EXPECT_EQ(result.totalRefs, 3u * 12'000u + 130u);
    EXPECT_EQ(result.elapsed, 15'561'250u);
}

// ------------------------------------------------------- FastCacheSim

TEST(FastCacheSim, SequentialWalkMissesOncePerPage)
{
    FastCacheSim sim(cache::CacheConfig{256, 4, 16, false});
    trace::MemRef ref;
    ref.asid = 1;
    ref.type = trace::RefType::DataRead;
    for (Addr va = 0; va < 16 * 256; va += 4) {
        ref.vaddr = va;
        sim.step(ref);
    }
    const auto &result = sim.result();
    EXPECT_EQ(result.refs, 16u * 64);
    EXPECT_EQ(result.misses, 16u);
    EXPECT_NEAR(result.missRatio(), 1.0 / 64, 1e-9);
}

TEST(FastCacheSim, WritesDoNotDoubleMiss)
{
    FastCacheSim sim(cache::CacheConfig{256, 4, 16, false});
    trace::MemRef ref;
    ref.asid = 1;
    ref.vaddr = 0x100;
    ref.type = trace::RefType::DataRead;
    sim.step(ref);
    ref.type = trace::RefType::DataWrite;
    EXPECT_FALSE(sim.step(ref));
    EXPECT_EQ(sim.result().misses, 1u);
}

TEST(FastCacheSim, SupervisorMissesTracked)
{
    FastCacheSim sim(cache::CacheConfig{256, 4, 16, false});
    trace::MemRef ref;
    ref.asid = 1;
    ref.vaddr = trace::kernelBase;
    ref.type = trace::RefType::InstrFetch;
    ref.supervisor = true;
    sim.step(ref);
    EXPECT_EQ(sim.result().supervisorRefs, 1u);
    EXPECT_EQ(sim.result().supervisorMisses, 1u);
    EXPECT_DOUBLE_EQ(sim.result().supervisorMissShare(), 1.0);
}

TEST(FastCacheSim, LargerCachesMissLess)
{
    auto run = [](std::uint64_t size) {
        FastCacheSim sim(cache::CacheConfig::forSize(size, 256, 4,
                                                     false));
        trace::SyntheticGen gen(
            trace::workloadConfig("atum1"));
        return sim.run(gen).missRatio();
    };
    const double small = run(KiB(64));
    const double large = run(KiB(256));
    EXPECT_GT(small, large);
}

TEST(FastCacheSim, ResetStatsKeepsCacheWarm)
{
    FastCacheSim sim(cache::CacheConfig{256, 4, 16, false});
    trace::MemRef ref;
    ref.asid = 1;
    ref.vaddr = 0x100;
    ref.type = trace::RefType::DataRead;
    sim.step(ref);
    EXPECT_EQ(sim.result().misses, 1u);
    sim.resetStats();
    EXPECT_EQ(sim.result().refs, 0u);
    // Warm: the page is still cached.
    EXPECT_FALSE(sim.step(ref));
    EXPECT_EQ(sim.result().misses, 0u);
}

TEST(FastCacheSim, ResultAccumulation)
{
    FastSimResult a, b;
    a.refs = 10;
    a.misses = 2;
    b.refs = 30;
    b.misses = 3;
    b.supervisorRefs = 5;
    b.supervisorMisses = 1;
    a += b;
    EXPECT_EQ(a.refs, 40u);
    EXPECT_EQ(a.misses, 5u);
    EXPECT_EQ(a.supervisorRefs, 5u);
    EXPECT_NEAR(a.missRatio(), 0.125, 1e-9);
}

} // namespace
} // namespace vmp::core
