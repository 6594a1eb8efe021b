/**
 * @file
 * Fault-injection harness, coherence-invariant checker and livelock
 * watchdog tests. Fast unit/property tests run in tier-1; the
 * Torture* suites (registered separately under the ctest label
 * "torture") sweep {workload} x {fault schedule} x {page size} x
 * {seed} for 200 seeded runs — including 4-entry FIFOs on both the
 * flat machine and the two-level hierarchy — and require zero
 * invariant violations and a silent watchdog on every one.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/coherence_checker.hh"
#include "core/hier_system.hh"
#include "core/system.hh"
#include "fault/injector.hh"
#include "monitor/interrupt_fifo.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace vmp
{
namespace
{

// ------------------------------------------------------------ helpers

core::VmpConfig
smallConfig(std::uint32_t cpus, std::uint32_t page_bytes,
            std::size_t fifo_capacity = 128)
{
    core::VmpConfig cfg;
    cfg.processors = cpus;
    cfg.cache = cache::CacheConfig{page_bytes, 2, 16, true};
    cfg.memBytes = MiB(1);
    cfg.fifoCapacity = fifo_capacity;
    return cfg;
}

/** Shared-kernel trace sources: heavy consistency traffic. */
std::vector<std::unique_ptr<trace::SyntheticGen>>
makeSources(const std::string &workload, std::uint32_t cpus,
            std::uint64_t refs_per_cpu, std::uint64_t seed)
{
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    for (std::uint32_t i = 0; i < cpus; ++i) {
        auto cfg = trace::workloadConfig(workload);
        cfg.totalRefs = refs_per_cpu;
        cfg.seed = seed * 1000 + i;
        gens.push_back(std::make_unique<trace::SyntheticGen>(cfg));
    }
    return gens;
}

std::vector<trace::RefSource *>
rawSources(std::vector<std::unique_ptr<trace::SyntheticGen>> &gens)
{
    std::vector<trace::RefSource *> raw;
    for (auto &g : gens)
        raw.push_back(g.get());
    return raw;
}

std::string
reportsOf(const check::CoherenceChecker &checker)
{
    std::ostringstream os;
    for (const auto &r : checker.reports())
        os << r << "\n";
    return os.str();
}

/** The torture fault schedules, by index (see tortureSchedule). */
constexpr int kScheduleCount = 5;

fault::FaultSchedule
tortureSchedule(int index, std::uint64_t seed)
{
    fault::FaultSchedule s;
    s.seed = seed;
    switch (index) {
      case 0: // light spurious aborts
        s.busAborts(0.01);
        break;
      case 1: // heavy aborts plus truncated transfers
        s.busAborts(0.05).truncations(0.02);
        break;
      case 2: // interrupt path: dropped words and late delivery
        s.fifoDrops(0.05).interruptDelays(0.02, 5000);
        break;
      case 3: // transfer path: stalled copier and DMA contention
        s.copierStalls(0.05, 4000).dmaBursts(0.02);
        break;
      case 4: // everything at once
        s.busAborts(0.02)
            .truncations(0.01)
            .fifoDrops(0.02)
            .interruptDelays(0.01, 3000)
            .copierStalls(0.02, 2000)
            .dmaBursts(0.01);
        break;
      default:
        fatal("unknown torture schedule ", index);
    }
    return s;
}

// ----------------------------------------------------- FaultSchedule

TEST(FaultSchedule, BuilderArmsDeclaredKindsOnly)
{
    fault::FaultSchedule s;
    EXPECT_TRUE(s.empty());
    s.busAborts(0.1).fifoDrops(0.2);
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(s.arms(fault::FaultKind::BusAbort));
    EXPECT_TRUE(s.arms(fault::FaultKind::FifoDrop));
    EXPECT_FALSE(s.arms(fault::FaultKind::Truncate));
    EXPECT_FALSE(s.arms(fault::FaultKind::DmaBurst));
}

TEST(FaultSchedule, ZeroProbabilityWithEveryNthStillArms)
{
    fault::FaultSchedule s;
    s.busAborts(0.0);
    EXPECT_TRUE(s.empty()); // p=0, no counter: can never fire
    s.everyNth(10);
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(s.arms(fault::FaultKind::BusAbort));
}

TEST(FaultSchedule, RejectsNonsense)
{
    fault::FaultSchedule s;
    EXPECT_THROW(s.busAborts(1.5), FatalError);
    EXPECT_THROW(s.truncations(-0.1), FatalError);
    EXPECT_THROW(s.window(0, 1), FatalError);   // no spec appended yet
    EXPECT_THROW(s.everyNth(3), FatalError);    // ditto
    s.busAborts(0.5);
    EXPECT_THROW(s.window(100, 50), FatalError); // inverted window
}

// ----------------------------------------- determinism and zero cost

TEST(FaultInjector, EmptyScheduleIsBitIdentical)
{
    auto run = [](bool with_injector) {
        core::VmpSystem system(smallConfig(2, 256));
        if (with_injector)
            system.enableFaultInjection(fault::FaultSchedule{});
        auto gens = makeSources("atum2", 2, 8'000, 7);
        auto raw = rawSources(gens);
        return system.runTraces(raw).toString();
    };
    // Null hooks draw no randomness and change no behavior: the run
    // summary (including the elapsed tick count) is bit-identical.
    EXPECT_EQ(run(false), run(true));
}

TEST(FaultInjector, SameSeedSameFaults)
{
    auto run = [](std::uint64_t seed) {
        core::VmpSystem system(smallConfig(2, 256));
        auto &injector =
            system.enableFaultInjection(tortureSchedule(1, seed));
        auto gens = makeSources("atum2", 2, 8'000, 3);
        auto raw = rawSources(gens);
        const auto result = system.runTraces(raw);
        return std::pair<std::string, std::uint64_t>(
            result.toString(), injector.totalInjected());
    };
    const auto a = run(42);
    const auto b = run(42);
    const auto c = run(43);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_GT(a.second, 0u);
    // A different injector seed fires different faults.
    EXPECT_NE(a.first == c.first && a.second == c.second, true);
}

TEST(FaultInjector, EveryNthFiresExactly)
{
    core::VmpSystem system(smallConfig(2, 256));
    fault::FaultSchedule s;
    s.busAborts(0.0).everyNth(50);
    auto &injector = system.enableFaultInjection(s);
    auto gens = makeSources("atum2", 2, 8'000, 5);
    auto raw = rawSources(gens);
    system.runTraces(raw);

    const auto opportunities =
        injector.opportunities(fault::FaultKind::BusAbort);
    const auto fired =
        injector.injected(fault::FaultKind::BusAbort).value();
    EXPECT_GT(opportunities, 50u);
    EXPECT_EQ(fired, opportunities / 50);
    EXPECT_EQ(system.root().bus.injectedAborts().value(), fired);
}

TEST(FaultInjector, WindowConfinesFaults)
{
    core::VmpSystem system(smallConfig(2, 256));
    fault::FaultSchedule s;
    // A window that closes at tick 0: armed but never open.
    s.busAborts(0.5).window(0, 0);
    auto &injector = system.enableFaultInjection(s);
    auto gens = makeSources("atum2", 2, 4'000, 9);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    EXPECT_GT(injector.opportunities(fault::FaultKind::BusAbort), 0u);
    EXPECT_EQ(injector.totalInjected(), 0u);
}

// ------------------------------------------------- hook smoke tests

TEST(FaultInjector, SpuriousAbortsAreRecovered)
{
    core::VmpSystem system(smallConfig(2, 256));
    fault::FaultSchedule s;
    s.seed = 11;
    s.busAborts(0.05);
    auto &injector = system.enableFaultInjection(s);
    auto &checker = system.enableCoherenceCheckers();

    auto gens = makeSources("atum3", 2, 10'000, 11);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);
    EXPECT_EQ(result.totalRefs, 20'000u);
    EXPECT_GT(injector.injected(fault::FaultKind::BusAbort).value(), 0u);
    // Injected aborts produce real retries on top of protocol ones.
    EXPECT_GT(system.controller(0).retries().value() +
                  system.controller(1).retries().value(),
              0u);
    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
    EXPECT_EQ(checker.violations().value(), 0u) << reportsOf(checker);
}

TEST(FaultInjector, AllKindsFireAndInvariantsHold)
{
    core::VmpSystem system(smallConfig(2, 256));
    fault::FaultSchedule s;
    s.busAborts(0.0).everyNth(40);
    s.truncations(0.0).everyNth(60);
    s.copierStalls(0.0, 3'000).everyNth(30);
    s.fifoDrops(0.0).everyNth(25);
    s.interruptDelays(0.0, 4'000).everyNth(10);
    s.dmaBursts(0.0).everyNth(50);
    // One mid-run failstop with a hot-rejoin covers BoardCrash; the
    // rejoined board replays the rest of its trace, so every reference
    // still retires.
    s.crashBoard(1, msec(2)).rejoinAt(msec(4));
    auto &injector = system.enableFaultInjection(s);
    auto &checker = system.enableCoherenceCheckers();
    system.enableRecovery();

    auto gens = makeSources("atum3", 2, 20'000, 21);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);

    // Partial-failure kinds are board-targeted schedules with their
    // own detection/fencing flows; they get dedicated tests below.
    for (std::size_t k = 0; k < fault::kFaultKinds; ++k) {
        const auto kind = static_cast<fault::FaultKind>(k);
        if (fault::isPartialFaultKind(kind))
            continue;
        EXPECT_GT(injector.injected(kind).value(), 0u)
            << fault::faultKindName(kind);
    }
    EXPECT_GT(system.root().bus.countOf(mem::TxType::DmaWrite).value(), 0u);
}

TEST(FaultInjector, DmaBurstsLandInScratchFrames)
{
    core::VmpSystem system(smallConfig(1, 256));
    fault::FaultSchedule s;
    s.dmaBursts(0.0).everyNth(20);
    auto &injector = system.enableFaultInjection(s);
    auto gens = makeSources("atum2", 1, 10'000, 13);
    auto raw = rawSources(gens);
    system.runTraces(raw);

    const auto bursts =
        injector.injected(fault::FaultKind::DmaBurst).value();
    EXPECT_GT(bursts, 0u);
    // Firings while a burst is still in flight are counted but
    // dropped, so completed DMA writes never exceed firings.
    EXPECT_GT(system.root().bus.countOf(mem::TxType::DmaWrite).value(), 0u);
    EXPECT_LE(system.root().bus.countOf(mem::TxType::DmaWrite).value(),
              bursts);
    // First burst payload (seq 0) is all zero-based bytes: byte i of
    // the page is (0 * 131 + i) & 0xff — check a word of frame 8.
    // Later bursts may have overwritten it round-robin; with 8 scratch
    // frames the frame revisited is seq % 8 == 0, payload seq*131+i.
    // Just assert the scratch region is no longer pristine zeros.
    bool touched = false;
    for (std::uint32_t f = 8; f < 16 && !touched; ++f) {
        if (system.memory().readWord(
                static_cast<Addr>(f) * 256) != 0)
            touched = true;
    }
    EXPECT_TRUE(touched);
}

// ------------------------------------------------- partial failures

TEST(PartialFault, BuilderValidatesSpecs)
{
    fault::FaultSchedule s;
    EXPECT_THROW(s.babbleFifo(0, 0, 0.0), FatalError);
    EXPECT_THROW(s.babbleFifo(0, 0, 1.5), FatalError);
    EXPECT_THROW(s.slowBoard(0, 0, 1), FatalError);
    EXPECT_THROW(s.clearAt(100), FatalError); // nothing appended yet
    s.wedgeMonitor(1, usec(50));
    EXPECT_THROW(s.clearAt(usec(50)), FatalError); // not after onset
    s.clearAt(usec(60));
    EXPECT_TRUE(s.arms(fault::FaultKind::MonitorWedge));
    EXPECT_FALSE(s.arms(fault::FaultKind::FifoBabble));
    s.babbleFifo(0, 0, 0.5).stickActionTable(1, usec(10))
        .slowBoard(0, 0, 4);
    EXPECT_TRUE(s.arms(fault::FaultKind::FifoBabble));
    EXPECT_TRUE(s.arms(fault::FaultKind::ActionTableStuck));
    EXPECT_TRUE(s.arms(fault::FaultKind::SlowBoard));
}

TEST(PartialFault, UnarmedHierIsBitIdentical)
{
    // The partial-failure seams (wedge branch, babble hook, stuck-table
    // branch, slowdown multiply) must cost nothing when unarmed — the
    // hierarchy exercises the wedged-IBC seam as well.
    auto run = [](bool with_injector) {
        core::HierConfig cfg;
        cfg.clusters = 2;
        cfg.cpusPerCluster = 2;
        cfg.cache = cache::CacheConfig{256, 2, 16, true};
        cfg.memBytes = MiB(1);
        core::HierVmpSystem system(cfg);
        if (with_injector)
            system.enableFaultInjection(fault::FaultSchedule{});
        auto gens = makeSources("atum2", 4, 5'000, 61);
        auto raw = rawSources(gens);
        return system.runTraces(raw).toString();
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(PartialFault, WedgeFreezesServiceThenClearRecovers)
{
    core::VmpSystem system(smallConfig(2, 256));
    fault::FaultSchedule s;
    s.wedgeMonitor(0, msec(1)).clearAt(msec(2));
    auto &injector = system.enableFaultInjection(s);
    auto &checker = system.enableCoherenceCheckers();

    auto gens = makeSources("atum3", 2, 20'000, 43);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);
    // The wedge window closes mid-run, the backlog drains, and every
    // reference still retires with the invariants intact.
    EXPECT_EQ(result.totalRefs, 40'000u);
    EXPECT_EQ(injector.injected(fault::FaultKind::MonitorWedge).value(),
              1u);
    EXPECT_FALSE(system.controller(0).wedged());
    EXPECT_GT(system.controller(0).serviceEpoch(), 0u);
    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
}

TEST(PartialFault, BabbleWordsAreSpuriousAndHarmless)
{
    core::VmpSystem system(smallConfig(2, 256));
    fault::FaultSchedule s;
    s.seed = 47;
    s.babbleFifo(0, 0, 0.2);
    auto &injector = system.enableFaultInjection(s);
    auto &checker = system.enableCoherenceCheckers();

    auto gens = makeSources("atum3", 2, 10'000, 47);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    // Garbage words were fabricated, the service loop recognized them
    // as spurious, and no table state was corrupted.
    EXPECT_GT(injector.injected(fault::FaultKind::FifoBabble).value(),
              0u);
    EXPECT_GT(system.board(0).monitor.babbleWords().value(), 0u);
    EXPECT_GT(system.controller(0).spuriousWords().value(), 0u);
    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
}

TEST(PartialFault, StuckTableDropsUpdates)
{
    core::VmpSystem system(smallConfig(1, 256));
    fault::FaultSchedule s;
    s.stickActionTable(0, 0);
    auto &injector = system.enableFaultInjection(s);
    system.events().run(); // fire the onset event
    EXPECT_EQ(
        injector.injected(fault::FaultKind::ActionTableStuck).value(),
        1u);

    auto &board = system.board(0);
    const Addr paddr = 5 * 256;
    bool done = false;
    system.controller(0).writeTable(
        paddr, mem::ActionEntry::Shared,
        system.controller(0).box([&] { done = true; }));
    system.events().run();
    ASSERT_TRUE(done);
    // The bus transaction completed but the monitor hardware silently
    // dropped the entry update.
    EXPECT_EQ(board.monitor.table().get(5), mem::ActionEntry::Ignore);
    EXPECT_GE(board.monitor.tableUpdatesDropped().value(), 1u);

    board.monitor.setTableStuck(false);
    done = false;
    system.controller(0).writeTable(
        paddr, mem::ActionEntry::Shared,
        system.controller(0).box([&] { done = true; }));
    system.events().run();
    ASSERT_TRUE(done);
    EXPECT_EQ(board.monitor.table().get(5), mem::ActionEntry::Shared);
}

TEST(PartialFault, SlowBoardStretchesServiceTime)
{
    auto run = [](std::uint64_t factor) {
        core::VmpSystem system(smallConfig(2, 256));
        if (factor > 1) {
            fault::FaultSchedule s;
            s.slowBoard(0, 0, factor).slowBoard(1, 0, factor);
            system.enableFaultInjection(s);
        }
        auto gens = makeSources("atum3", 2, 10'000, 53);
        auto raw = rawSources(gens);
        return system.runTraces(raw).elapsed;
    };
    // Inflated interrupt-service latency shows up as wall-clock time:
    // every consistency interaction with the slow boards takes longer.
    EXPECT_GT(run(16), run(1));
}

TEST(FaultInjector, InterBusSpecsFailCleanly)
{
    // Inter-bus faults on a machine without inter-bus boards, or on a
    // cluster that does not exist, are user errors: each is rejected
    // with a FatalError when armed or called, never a panic or a hang.
    core::HierConfig hier_cfg;
    hier_cfg.clusters = 2;
    hier_cfg.cpusPerCluster = 1;
    hier_cfg.cache = cache::CacheConfig{256, 2, 16, true};
    hier_cfg.memBytes = MiB(1);
    const auto arm_flat = [](const fault::FaultSchedule &s) {
        core::VmpSystem system(smallConfig(2, 256));
        system.enableFaultInjection(s);
    };
    const auto arm_hier = [&hier_cfg](const fault::FaultSchedule &s) {
        core::HierVmpSystem system(hier_cfg);
        system.enableFaultInjection(s);
    };

    fault::FaultSchedule flat_crash;
    flat_crash.crashInterBus(0, usec(10));
    EXPECT_THROW(arm_flat(flat_crash), FatalError);

    fault::FaultSchedule flat_wedge;
    flat_wedge.wedgeInterBus(0, usec(10));
    EXPECT_THROW(arm_flat(flat_wedge), FatalError);

    fault::FaultSchedule rejoin;
    rejoin.crashInterBus(1, usec(10)).rejoinAt(usec(20));
    EXPECT_THROW(arm_hier(rejoin), FatalError);

    fault::FaultSchedule crash_range;
    crash_range.crashInterBus(hier_cfg.clusters, usec(10));
    EXPECT_THROW(arm_hier(crash_range), FatalError);

    fault::FaultSchedule wedge_range;
    wedge_range.wedgeInterBus(hier_cfg.clusters, usec(10));
    EXPECT_THROW(arm_hier(wedge_range), FatalError);

    core::HierVmpSystem system(hier_cfg);
    EXPECT_THROW(system.killInterBusBoard(hier_cfg.clusters, usec(10)),
                 FatalError);
}

TEST(FaultInjector, RejectedScheduleLeavesMachineUnarmed)
{
    // The whole schedule is checked before any of it is armed: a bad
    // entry after good crash and partial entries schedules nothing and
    // installs no injector, so the corrected schedule still arms.
    core::VmpSystem system(smallConfig(2, 256));
    const std::size_t pending = system.events().pending();
    fault::FaultSchedule bad;
    bad.crashBoard(0, usec(10)).rejoinAt(usec(20));
    bad.wedgeMonitor(1, usec(15)).clearAt(usec(25));
    bad.crashInterBus(0, usec(30));
    EXPECT_THROW(system.enableFaultInjection(bad), FatalError);
    EXPECT_EQ(system.events().pending(), pending);

    fault::FaultSchedule good;
    good.crashBoard(0, usec(10)).rejoinAt(usec(20));
    good.wedgeMonitor(1, usec(15)).clearAt(usec(25));
    EXPECT_NO_THROW(system.enableFaultInjection(good));
    EXPECT_GT(system.events().pending(), pending);
}

TEST(PartialFault, ZeroSlowdownFactorIsFatal)
{
    core::VmpSystem system(smallConfig(1, 256));
    EXPECT_THROW(system.controller(0).setServiceSlowdown(0),
                 PanicError);
}

// ------------------------------------------------ coherence checker

TEST(CoherenceChecker, CleanRunHasNoViolations)
{
    core::VmpSystem system(smallConfig(4, 256));
    auto &checker = system.enableCoherenceCheckers();
    auto gens = makeSources("atum1", 4, 6'000, 17);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    EXPECT_GT(checker.transactionsObserved().value(), 0u);
    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
    EXPECT_EQ(checker.violations().value(), 0u) << reportsOf(checker);
}

TEST(CoherenceChecker, DetectsSeededDoubleOwner)
{
    core::VmpSystem system(smallConfig(2, 256));
    auto &checker = system.enableCoherenceCheckers();
    // Corrupt the hardware state behind the software's back: two
    // monitors claiming Protect for one frame breaks I1 (and each is
    // a stale 10 without Private bookkeeping, breaking I2).
    system.board(0).monitor.table().set(5, mem::ActionEntry::Protect);
    system.board(1).monitor.table().set(5, mem::ActionEntry::Protect);
    const auto found = checker.checkFull();
    EXPECT_GE(found, 3u);
    ASSERT_FALSE(checker.reports().empty());
    EXPECT_NE(reportsOf(checker).find("I1"), std::string::npos);
    EXPECT_NE(reportsOf(checker).find("I2"), std::string::npos);
}

TEST(CoherenceChecker, OnlineCheckSeesTransactions)
{
    core::VmpSystem system(smallConfig(2, 256));
    auto &checker = system.enableCoherenceCheckers();
    auto gens = makeSources("atum2", 2, 4'000, 19);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    EXPECT_GT(checker.transactionsObserved().value(), 100u);
    EXPECT_EQ(checker.violations().value(), 0u) << reportsOf(checker);
}

TEST(CoherenceChecker, InstallTwiceIsFatal)
{
    core::VmpSystem system(smallConfig(1, 256));
    system.enableCoherenceCheckers();
    EXPECT_THROW(system.enableCoherenceCheckers(), FatalError);
}

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

TEST(CoherenceChecker, StatsAppearInDumpAndJson)
{
    core::VmpSystem system(smallConfig(2, 256));
    system.enableFaultInjection(tortureSchedule(0, 23));
    system.enableCoherenceCheckers();
    system.enableRecovery();
    system.enableFrameCheckpoint();
    system.enableTracing();
    auto gens = makeSources("atum2", 2, 4'000, 23);
    auto raw = rawSources(gens);
    system.runTraces(raw);

    std::ostringstream os;
    system.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("check.violations"), std::string::npos);
    EXPECT_NE(out.find("fault.bus_aborts"), std::string::npos);
    const Json stats = system.statsJson();
    const std::string json = stats.dump();
    EXPECT_NE(json.find("\"check\""), std::string::npos);
    EXPECT_NE(json.find("\"fault\""), std::string::npos);

    // The full layout with every subsystem armed, in order.
    const std::vector<std::string> groups = {
        "bus",     "cpu0",    "cpu1",    "fault",
        "check",   "recover", "backing", "obs"};
    std::vector<std::string> json_groups;
    for (const auto &member : stats.members())
        json_groups.push_back(member.first);
    EXPECT_EQ(json_groups, groups);
    EXPECT_EQ(dumpGroupOrder(out, groups), groups);

    const std::vector<std::string> tracks = {"bus", "cpu0", "cpu1",
                                             "recover"};
    std::vector<std::string> track_names;
    for (std::uint16_t i = 0; i < system.tracer()->trackCount(); ++i)
        track_names.push_back(system.tracer()->trackName(i));
    EXPECT_EQ(track_names, tracks);
}

// ------------------------------------------------ livelock watchdog

TEST(Watchdog, QuietOnCleanRun)
{
    core::VmpSystem system(smallConfig(4, 256));
    std::uint64_t trips = 0;
    system.setWatchdog(1'000,
                       [&](const proto::WatchdogReport &) { ++trips; });
    auto gens = makeSources("atum3", 4, 8'000, 29);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    EXPECT_EQ(trips, 0u);
    for (std::size_t cpu = 0; cpu < 4; ++cpu)
        EXPECT_EQ(system.controller(cpu).watchdogTrips().value(), 0u);
}

TEST(Watchdog, TripsOnceUnderStarvationAndRunStillCompletes)
{
    core::VmpSystem system(smallConfig(2, 256));
    fault::FaultSchedule s;
    s.seed = 31;
    s.busAborts(0.85); // most consistency transactions abort
    system.enableFaultInjection(s);

    std::vector<proto::WatchdogReport> reports;
    system.setWatchdog(
        2, [&](const proto::WatchdogReport &r) { reports.push_back(r); });

    auto gens = makeSources("atum2", 2, 1'500, 31);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw); // must terminate
    EXPECT_EQ(result.totalRefs, 3'000u);
    ASSERT_FALSE(reports.empty());
    for (const auto &r : reports) {
        EXPECT_EQ(r.attempts, 3u); // fires exactly at cap + 1
        EXPECT_FALSE(r.operation.empty());
        EXPECT_GE(r.now, r.started);
        EXPECT_FALSE(r.toString().empty());
    }
    const auto trips = system.controller(0).watchdogTrips().value() +
                       system.controller(1).watchdogTrips().value();
    EXPECT_EQ(trips, reports.size());
}

TEST(Watchdog, ZeroCapDisables)
{
    core::VmpSystem system(smallConfig(2, 256));
    fault::FaultSchedule s;
    s.seed = 37;
    s.busAborts(0.85);
    system.enableFaultInjection(s);
    std::uint64_t trips = 0;
    system.setWatchdog(0,
                       [&](const proto::WatchdogReport &) { ++trips; });
    auto gens = makeSources("atum2", 2, 1'500, 37);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    EXPECT_EQ(trips, 0u);
}

// --------------------------- satellite: tiny-FIFO overflow recovery

TEST(TinyFifo, OverflowIsStickyAndCountsDrops)
{
    monitor::InterruptFifo fifo(2);
    monitor::InterruptWord word{};
    fifo.push(word);
    fifo.push(word);
    EXPECT_FALSE(fifo.overflowed());
    fifo.push(word); // third word into a 2-deep FIFO
    EXPECT_TRUE(fifo.overflowed());
    EXPECT_EQ(fifo.size(), 2u);
    EXPECT_EQ(fifo.dropped().value(), 1u);
    EXPECT_EQ(fifo.pushed().value(), 2u);
    fifo.clearOverflow();
    EXPECT_FALSE(fifo.overflowed());
    EXPECT_EQ(fifo.dropped().value(), 1u); // counter is cumulative
}

TEST(TinyFifo, ForcedDropsTriggerOverflowRecovery)
{
    // 4-entry FIFOs plus forced drops: every drop sets the sticky
    // overflow bit, so service passes must run the conservative
    // recovery sweep and still land in a legal state.
    core::VmpSystem system(smallConfig(2, 256, 4));
    fault::FaultSchedule s;
    s.seed = 41;
    s.fifoDrops(0.25);
    auto &injector = system.enableFaultInjection(s);
    auto &checker = system.enableCoherenceCheckers();

    auto gens = makeSources("atum3", 2, 10'000, 41);
    auto raw = rawSources(gens);
    system.runTraces(raw);
    EXPECT_GT(injector.injected(fault::FaultKind::FifoDrop).value(), 0u);
    const auto recoveries =
        system.controller(0).overflowRecoveries().value() +
        system.controller(1).overflowRecoveries().value();
    EXPECT_GT(recoveries, 0u);
    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
}

// ------------------------- satellite: retry-delay determinism

TEST(RetryDelay, DeterministicBoundedAndDesynchronized)
{
    auto draw = [](core::VmpSystem &system, std::size_t cpu) {
        std::vector<Tick> delays;
        for (int i = 0; i < 64; ++i)
            delays.push_back(system.controller(cpu).retryDelay());
        return delays;
    };

    core::VmpSystem a(smallConfig(2, 256));
    core::VmpSystem b(smallConfig(2, 256));
    const auto a0 = draw(a, 0);
    const auto b0 = draw(b, 0);
    const auto a1 = draw(a, 1);

    // Same seed (same CPU id) => identical jitter sequence.
    EXPECT_EQ(a0, b0);
    // Bounded: retryNs <= delay <= retryNs + retryJitterNs.
    for (const Tick d : a0) {
        EXPECT_GE(d, proto::kRetryNs);
        EXPECT_LE(d, proto::kRetryNs + proto::kRetryJitterNs);
    }
    // Different CPUs draw different sequences (desynchronization is
    // the whole point of the jitter — Section 3.2's retry argument).
    EXPECT_NE(a0, a1);
}

// --------------------------------------------------- torture matrix
//
// Registered with the "torture" ctest label, excluded from tier-1
// discovery. 200 seeded runs total:
//   TortureMatrix:   3 workloads x 3 page sizes x 5 schedules
//                    x 4 seeds                         = 180 runs
//   TortureTinyFifo: 3 schedules x 4 seeds (4-entry FIFO) = 12 runs
//   TortureHier:     2 schedules x 2 page sizes x 2 seeds
//                    (4-entry FIFOs at both levels)       = 8 runs

struct TortureParams
{
    const char *workload;
    std::uint32_t pageBytes;
    int schedule;
};

std::string
tortureName(const ::testing::TestParamInfo<TortureParams> &info)
{
    std::ostringstream os;
    os << info.param.workload << "_p" << info.param.pageBytes << "_s"
       << info.param.schedule;
    return os.str();
}

void
tortureRun(const TortureParams &p, std::uint64_t seed,
           std::size_t fifo_capacity)
{
    core::VmpSystem system(
        smallConfig(2, p.pageBytes, fifo_capacity));
    system.enableFaultInjection(tortureSchedule(p.schedule, seed));
    auto &checker = system.enableCoherenceCheckers();
    std::uint64_t trips = 0;
    system.setWatchdog(1'000,
                       [&](const proto::WatchdogReport &) { ++trips; });

    auto gens = makeSources(p.workload, 2, 6'000, seed);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);
    EXPECT_EQ(result.totalRefs, 12'000u);
    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u)
        << p.workload << " p=" << p.pageBytes << " s=" << p.schedule
        << " seed=" << seed << "\n" << reportsOf(checker);
    EXPECT_EQ(checker.violations().value(), 0u) << reportsOf(checker);
    // Bounded retries: at the paper-default cap nothing ever starves.
    std::string starved;
    for (std::size_t cpu = 0; cpu < 2; ++cpu) {
        const auto &last =
            system.controller(cpu).lastWatchdogReport();
        if (last)
            starved += last->toString() + "\n";
    }
    EXPECT_EQ(trips, 0u) << starved;
}

class TortureMatrix : public ::testing::TestWithParam<TortureParams>
{
};

TEST_P(TortureMatrix, ZeroViolationsBoundedRetries)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        tortureRun(GetParam(), seed, 128);
}

std::vector<TortureParams>
matrixParams()
{
    std::vector<TortureParams> params;
    for (const char *workload : {"atum1", "atum2", "atum3"})
        for (std::uint32_t page : {128u, 256u, 512u})
            for (int schedule = 0; schedule < kScheduleCount; ++schedule)
                params.push_back({workload, page, schedule});
    return params;
}

INSTANTIATE_TEST_SUITE_P(Matrix, TortureMatrix,
                         ::testing::ValuesIn(matrixParams()),
                         tortureName);

class TortureTinyFifo : public ::testing::TestWithParam<TortureParams>
{
};

TEST_P(TortureTinyFifo, FourEntryFifoStaysCoherent)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        tortureRun(GetParam(), seed, 4);
}

INSTANTIATE_TEST_SUITE_P(
    TinyFifo, TortureTinyFifo,
    ::testing::Values(TortureParams{"atum3", 256, 2},
                      TortureParams{"atum3", 256, 4},
                      TortureParams{"atum2", 128, 2}),
    tortureName);

struct HierTortureParams
{
    std::uint32_t pageBytes;
    int schedule;
};

class TortureHier
    : public ::testing::TestWithParam<HierTortureParams>
{
};

TEST_P(TortureHier, TwoLevelFourEntryFifosStayCoherent)
{
    const auto &p = GetParam();
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        core::HierConfig cfg;
        cfg.clusters = 2;
        cfg.cpusPerCluster = 2;
        cfg.cache = cache::CacheConfig{p.pageBytes, 2, 16, true};
        cfg.memBytes = MiB(1);
        cfg.fifoCapacity = 4;
        cfg.ibcFifoCapacity = 4;
        core::HierVmpSystem system(cfg);
        system.enableFaultInjection(tortureSchedule(p.schedule, seed));
        system.enableCoherenceCheckers();
        std::uint64_t trips = 0;
        system.setWatchdog(
            1'000, [&](const proto::WatchdogReport &) { ++trips; });

        auto gens = makeSources("atum2", 4, 4'000, seed + 100);
        auto raw = rawSources(gens);
        const auto result = system.runTraces(raw);
        EXPECT_EQ(result.totalRefs, 16'000u);
        EXPECT_TRUE(system.quiesce());
        EXPECT_EQ(system.checkFullAll(), 0u)
            << "p=" << p.pageBytes << " s=" << p.schedule
            << " seed=" << seed;
        EXPECT_EQ(system.totalViolations(), 0u);
        EXPECT_EQ(trips, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Hier, TortureHier,
    ::testing::Values(HierTortureParams{128, 0},
                      HierTortureParams{128, 2},
                      HierTortureParams{256, 0},
                      HierTortureParams{256, 2}),
    [](const ::testing::TestParamInfo<HierTortureParams> &info) {
        std::ostringstream os;
        os << "p" << info.param.pageBytes << "_s"
           << info.param.schedule;
        return os.str();
    });

} // namespace
} // namespace vmp
