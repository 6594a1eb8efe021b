/**
 * @file
 * Whole-system stress and property tests: randomized data-race-free
 * parallel programs whose results must be exact under any interleaving
 * the protocol produces; adversarial configurations (tiny caches and
 * FIFOs forcing evictions and overflow recoveries); and end-of-run
 * verification of the protocol invariants DESIGN.md lists — for every
 * frame, at most one private owner; every memory mutation a successful
 * write-back; no stale Protect entries at quiescence.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/system.hh"
#include "mem/dma.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sync/locks.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"
#include "vm/vm_system.hh"

namespace vmp
{
namespace
{

/** Check the two-state invariant across all boards at quiescence. */
void
expectTwoStateInvariant(core::VmpSystem &system)
{
    const auto &cfg = system.config();
    const std::uint64_t frames = cfg.memBytes / cfg.cache.pageBytes;
    for (std::uint64_t frame = 0; frame < frames; ++frame) {
        const Addr pa = frame * cfg.cache.pageBytes;
        unsigned owners = 0;
        for (std::size_t cpu = 0; cpu < cfg.processors; ++cpu) {
            const auto *info = system.controller(cpu).frameInfo(pa);
            if (info && info->state == proto::FrameState::Private)
                ++owners;
        }
        ASSERT_LE(owners, 1u) << "frame " << frame;
    }
}

/** Memory mutations = successful write-backs + uncached/DMA writes. */
void
expectWriteInvariant(core::VmpSystem &system)
{
    const auto &bus = system.root().bus;
    const std::uint64_t expected =
        bus.countOf(mem::TxType::WriteBack).value() +
        bus.countOf(mem::TxType::DmaWrite).value();
    EXPECT_EQ(system.memory().writes().value(), expected);
}

// ------------------------------------------------- randomized programs

/**
 * Build a DRF random worker: a fixed sequence of lock-protected
 * increments over a set of shared counters. Each worker picks counters
 * pseudo-randomly but the per-counter increment totals are known, so
 * the final memory state is exactly checkable.
 */
cpu::Program
randomWorker(Rng &rng, const std::vector<Addr> &counters, Addr lock_pa,
             std::uint32_t rounds,
             std::map<Addr, std::uint32_t> &expected)
{
    using namespace vmp::cpu;
    Program program;
    for (std::uint32_t r = 0; r < rounds; ++r) {
        const Addr counter =
            counters[rng.below(counters.size())];
        expected[counter] += 1;
        const auto acquire =
            static_cast<std::int32_t>(program.size());
        program.push_back(opUncachedTas(lock_pa, 0));
        program.push_back(opBranchIfNotZero(0, acquire));
        program.push_back(opRead(counter, 2));
        program.push_back(opAddImm(2, 1));
        program.push_back(opWrite(counter, 2));
        program.push_back(opUncachedWrite(lock_pa, 0));
    }
    program.push_back(opHalt());
    return program;
}

struct RandomRunParams
{
    std::uint64_t seed;
    std::uint32_t cpus;
    std::uint32_t pageBytes;
};

class RandomDrfTest : public ::testing::TestWithParam<RandomRunParams>
{
};

TEST_P(RandomDrfTest, LockProtectedCountersAreExact)
{
    const auto &params = GetParam();
    Rng rng(params.seed);

    core::VmpConfig cfg;
    cfg.processors = params.cpus;
    cfg.cache =
        cache::CacheConfig{params.pageBytes, 2, 8, true}; // tiny
    cfg.memBytes = MiB(1);
    core::VmpSystem system(cfg);

    // A handful of counters spread over several pages (some sharing a
    // page, some not).
    std::vector<Addr> counters;
    for (int i = 0; i < 6; ++i)
        counters.push_back(trace::kernelBase + 0x4000 +
                           static_cast<Addr>(i) * 0x90);
    const Addr lock_pa = 0x200;

    std::map<Addr, std::uint32_t> expected;
    std::vector<cpu::Program> programs;
    for (std::uint32_t c = 0; c < params.cpus; ++c)
        programs.push_back(
            randomWorker(rng, counters, lock_pa, 12, expected));

    const auto cpu_objs = system.runPrograms(programs);
    EXPECT_TRUE(system.quiesce());

    for (const auto &[counter, want] : expected) {
        std::uint32_t value = 0;
        bool done = false;
        system.controller(0).readWord(1, counter, true,
                                      [&](std::uint32_t v) {
                                          value = v;
                                          done = true;
                                      });
        system.events().run();
        ASSERT_TRUE(done);
        EXPECT_EQ(value, want) << "counter 0x" << std::hex << counter;
    }
    expectTwoStateInvariant(system);
    expectWriteInvariant(system);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomDrfTest,
    ::testing::Values(RandomRunParams{1, 2, 128},
                      RandomRunParams{2, 3, 256},
                      RandomRunParams{3, 4, 512},
                      RandomRunParams{4, 3, 128},
                      RandomRunParams{5, 2, 512}),
    [](const ::testing::TestParamInfo<RandomRunParams> &info) {
        return "seed" + std::to_string(info.param.seed) + "_cpus" +
            std::to_string(info.param.cpus) + "_p" +
            std::to_string(info.param.pageBytes);
    });

// ----------------------------------------------- adversarial configs

TEST(Integration, TinyFifoForcesOverflowRecoveryButStaysCorrect)
{
    core::VmpConfig cfg;
    cfg.processors = 3;
    cfg.cache = cache::CacheConfig{128, 2, 8, true};
    cfg.memBytes = MiB(1);
    cfg.fifoCapacity = 1; // absurdly small: guarantees drops
    core::VmpSystem system(cfg);

    // Cached-TAS spinning over shared pages maximizes interrupt-word
    // traffic (every spin steals the lock page from someone).
    sync::LockWorkload workload;
    workload.kind = sync::LockKind::CachedTas;
    workload.iterations = 20;
    workload.lockAddr = trace::kernelBase + 0x1000;
    workload.counterAddr = trace::kernelBase + 0x2000;
    workload.extraWork = 3;
    workload.workBase = trace::kernelBase + 0x2010;

    const auto cpus = system.runPrograms(std::vector<cpu::Program>(
        3, sync::lockWorker(workload)));

    std::uint32_t value = 0;
    system.controller(0).readWord(1, workload.counterAddr, true,
                                  [&](std::uint32_t v) { value = v; });
    system.events().run();
    EXPECT_EQ(value, 60u);

    std::uint64_t recoveries = 0;
    for (std::size_t cpu = 0; cpu < 3; ++cpu)
        recoveries +=
            system.controller(cpu).overflowRecoveries().value();
    // With a 2-entry FIFO and three contenders, recoveries happen.
    EXPECT_GT(recoveries, 0u);
}

TEST(Integration, SharedTraceWorkloadsKeepInvariants)
{
    core::VmpConfig cfg;
    cfg.processors = 4;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(2);
    core::VmpSystem system(cfg);

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < 4; ++i) {
        auto workload = trace::workloadConfig("atum3");
        workload.totalRefs = 25'000;
        workload.seed = 900 + i;
        // Shared kernel image: heavy consistency traffic on purpose.
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }
    const auto result = system.runTraces(sources);
    EXPECT_EQ(result.totalRefs, 100'000u);
    EXPECT_TRUE(system.quiesce());
    expectTwoStateInvariant(system);
    expectWriteInvariant(system);
}

TEST(Integration, PrivateHintEliminatesUpgrades)
{
    auto run = [](bool hint) {
        core::VmpConfig cfg;
        cfg.processors = 1;
        cfg.cache = cache::CacheConfig::forSize(KiB(64), 256, 4, true);
        cfg.memBytes = MiB(8);
        core::VmpSystem system(cfg);
        system.setUserPrivateHint(hint);
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = 40'000;
        trace::SyntheticGen gen(workload);
        system.runTraces({&gen});
        return std::pair<std::uint64_t, std::uint64_t>(
            system.controller(0).ownershipMisses().value(),
            system.controller(0).hintedPrivateFills().value());
    };
    const auto [upgrades_off, hinted_off] = run(false);
    const auto [upgrades_on, hinted_on] = run(true);
    EXPECT_EQ(hinted_off, 0u);
    EXPECT_GT(hinted_on, 0u);
    // User-page upgrades disappear; only shared kernel pages remain.
    EXPECT_LT(upgrades_on, upgrades_off);
}

TEST(Integration, StatsDumpMentionsEveryBoard)
{
    core::VmpConfig cfg;
    cfg.processors = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::VmpSystem system(cfg);
    auto workload = trace::workloadConfig("atum2");
    workload.totalRefs = 5'000;
    trace::SyntheticGen gen(workload);
    system.runTraces({&gen});

    std::ostringstream os;
    system.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("bus.transactions"), std::string::npos);
    EXPECT_NE(out.find("cpu0.misses"), std::string::npos);
    EXPECT_NE(out.find("cpu1.misses"), std::string::npos);
    EXPECT_NE(out.find("cpu0.cache_hits"), std::string::npos);
}

TEST(Integration, DmaDeviceCoexistsWithTraceTraffic)
{
    core::VmpConfig cfg;
    cfg.processors = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    core::VmpSystem system(cfg);
    mem::DmaDevice device(50, system.root().bus);

    // Kick off a DMA into the reserved (never-cached) region while
    // trace CPUs hammer the bus; DMA must complete unaborted.
    bool dma_done = false;
    std::vector<std::uint8_t> payload(1024, 0x5a);
    device.write(0x400, payload, [&] { dma_done = true; });

    auto workload = trace::workloadConfig("atum2");
    workload.totalRefs = 10'000;
    trace::SyntheticGen gen0(workload);
    workload.seed = 77;
    trace::SyntheticGen gen1(workload);
    system.runTraces({&gen0, &gen1});

    EXPECT_TRUE(dma_done);
    EXPECT_EQ(system.memory().readWord(0x400), 0x5a5a5a5au);
    EXPECT_EQ(device.bytesMoved(), 1024u);
}

// ------------------------------------------------ full paging stack

/** User-only workload (kernel refs would address raw physical memory
 *  through the kernel window, which belongs to the VM allocator). */
trace::SyntheticConfig
userOnlyWorkload(std::uint64_t refs, std::uint64_t seed)
{
    auto workload = trace::workloadConfig("atum2");
    workload.totalRefs = refs;
    workload.seed = seed;
    workload.osRefFrac = 0.0;
    return workload;
}

/** The full software stack: a VmpSystem whose translations walk the
 *  real page tables of vm::VmSystem, every controller faulting into
 *  it (demand paging, nested PTE misses, pageout under pressure). */
struct PagedMachine
{
    explicit PagedMachine(const core::VmpConfig &config,
                          const vm::VmConfig &vm_config = {})
        : machine(config, &translator),
          vm(machine.events(), machine.memory(), vm_config)
    {
        translator.bind(vm);
        for (std::size_t i = 0; i < machine.config().processors; ++i)
            vm.attach(machine.controller(i));
    }

    vm::VmTranslator translator;
    core::VmpSystem machine;
    vm::VmSystem vm;
};

TEST(PagedSystem, TraceRunWithDemandPaging)
{
    core::VmpConfig cfg;
    cfg.processors = 1;
    cfg.cache = cache::CacheConfig{256, 4, 32, true};
    cfg.memBytes = MiB(4);
    PagedMachine paged(cfg);

    trace::SyntheticGen gen(userOnlyWorkload(60'000, 7));
    const auto result = paged.machine.runTraces({&gen});
    EXPECT_EQ(result.totalRefs, 60'000u);
    // Demand paging happened, and page-table walks nested through the
    // cache (more misses than faults).
    EXPECT_GT(paged.vm.pageFaults().value(), 10u);
    EXPECT_GT(result.totalMisses, paged.vm.pageFaults().value());
    EXPECT_EQ(paged.vm.pageOuts().value(), 0u); // no pressure yet
}

TEST(PagedSystem, TraceRunUnderMemoryPressure)
{
    core::VmpConfig cfg;
    cfg.processors = 2;
    cfg.cache = cache::CacheConfig{256, 4, 32, true};
    cfg.memBytes = MiB(4);
    vm::VmConfig vm_cfg;
    vm_cfg.tier.diskLatencyNs = usec(50); // keep the run fast
    PagedMachine paged(cfg, vm_cfg);

    // Artificially shrink memory: grab frames until ~48 remain.
    std::vector<std::uint32_t> grabbed;
    while (paged.vm.allocator().freeFrames() > 48) {
        const auto frame = paged.vm.allocator().alloc();
        ASSERT_TRUE(frame.has_value());
        grabbed.push_back(*frame);
    }

    trace::SyntheticGen gen0(userOnlyWorkload(40'000, 11));
    auto workload1 = userOnlyWorkload(40'000, 12);
    workload1.asidBase = 10;
    trace::SyntheticGen gen1(workload1);
    const auto result = paged.machine.runTraces({&gen0, &gen1});
    EXPECT_EQ(result.totalRefs, 80'000u);
    // The pageout daemon ran and pages cycled through the store.
    EXPECT_GT(paged.vm.pageOuts().value(), 0u);
    EXPECT_GT(paged.vm.tier().images().stores().value(), 0u);

    for (const auto frame : grabbed)
        paged.vm.allocator().free(frame);
}

TEST(PagedSystem, TwoCpusShareOneAddressSpace)
{
    // Both CPUs run the same ASID: their page tables and data pages
    // are physically shared, so the Section 3.4 machinery (PTE-page
    // ownership migration, referenced-bit updates) is exercised across
    // processors.
    core::VmpConfig cfg;
    cfg.processors = 2;
    cfg.cache = cache::CacheConfig{256, 4, 32, true};
    cfg.memBytes = MiB(4);
    PagedMachine paged(cfg);

    trace::SyntheticGen gen0(userOnlyWorkload(30'000, 21));
    trace::SyntheticGen gen1(userOnlyWorkload(30'000, 22));
    const auto result = paged.machine.runTraces({&gen0, &gen1});
    EXPECT_EQ(result.totalRefs, 60'000u);
    // Real sharing: consistency transactions occurred.
    EXPECT_GT(paged.machine.root().bus.aborts().value() +
                  paged.machine.root().bus
                      .countOf(mem::TxType::AssertOwnership)
                      .value(),
              0u);
}

} // namespace
} // namespace vmp
