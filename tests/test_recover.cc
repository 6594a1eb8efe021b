/**
 * @file
 * Failstop-recovery tests: the completed-only per-type bus counters,
 * the FailureDetector state machine (abort streaks, liveness sweeps,
 * probe backoff, false suspicions), the RecoveryManager reclaim flow
 * (mask, drain, scan, Reclaim broadcast, backing-store restore), the
 * null-hook determinism guarantee, killBoard/rejoinBoard on the flat
 * machine, DeadOwnerError surfacing without recovery, and inter-bus
 * board death on the two-level hierarchy.
 *
 * The fast tests run in tier-1; the Torture* suites are registered
 * separately under the ctest label "torture" and sweep board-crash
 * schedules (kill one / kill-and-rejoin / kill an inter-bus board)
 * across page sizes and seeds, requiring zero invariant violations
 * and bounded pages_lost on every run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "backing/page_store.hh"
#include "check/coherence_checker.hh"
#include "core/hier_system.hh"
#include "core/system.hh"
#include "fault/injector.hh"
#include "mem/bus_types.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "proto/controller.hh"
#include "recover/failure_detector.hh"
#include "recover/recovery.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"
#include "vm/page_table.hh"

namespace vmp
{
namespace
{

using mem::ActionEntry;
using mem::TxType;
using mem::WatchVerdict;

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

/** Minimal bus rig: memory + bus, no processors. */
struct BusRig
{
    explicit BusRig(std::uint32_t page_bytes = 256)
        : memory(MiB(1), page_bytes), bus(events, memory)
    {}

    /** Issue @p tx and run to completion; returns aborted flag. */
    bool
    issue(const mem::BusTransaction &tx)
    {
        bool done = false;
        bool aborted = false;
        bus.request(tx, [&](const mem::TxResult &r) {
            aborted = r.aborted;
            done = true;
        });
        events.run();
        EXPECT_TRUE(done);
        return aborted;
    }

    mem::BusTransaction
    shortTx(TxType type, Addr paddr, std::uint32_t requester)
    {
        mem::BusTransaction tx;
        tx.type = type;
        tx.requester = requester;
        tx.paddr = paddr;
        return tx;
    }

    EventQueue events;
    mem::PhysMem memory;
    mem::VmeBus bus;
};

// --------------------------------------------------- per-type counters
//
// Regression for the completed-only countOf() semantics: an
// aborted-then-retried transaction must count exactly once in
// countOf() (when it finally succeeds) and exactly once in abortsOf().
// Counting aborted grants in countOf() used to double-count every
// retried transaction during recovery storms.

/** Aborts the first ReadShared it observes, then ignores everything. */
class AbortOnce : public mem::BusWatcher
{
  public:
    WatchVerdict
    observe(const mem::BusTransaction &tx) override
    {
        if (tx.type == TxType::ReadShared && !fired_) {
            fired_ = true;
            return WatchVerdict::AbortAndInterrupt;
        }
        return WatchVerdict::Ignore;
    }

    void sideEffectUpdate(const mem::BusTransaction &) override {}

  private:
    bool fired_ = false;
};

TEST(BusCounters, AbortedThenRetriedCountsOnce)
{
    BusRig rig;
    AbortOnce watcher;
    rig.bus.attachWatcher(1, watcher);

    std::vector<std::uint8_t> buf(256);
    mem::BusTransaction tx;
    tx.type = TxType::ReadShared;
    tx.requester = 0;
    tx.paddr = 0;
    tx.bytes = 256;
    tx.data = buf.data();

    EXPECT_TRUE(rig.issue(tx));  // aborted attempt
    EXPECT_FALSE(rig.issue(tx)); // retry succeeds

    // The logical transaction completed once and aborted once.
    EXPECT_EQ(rig.bus.countOf(TxType::ReadShared).value(), 1u);
    EXPECT_EQ(rig.bus.abortsOf(TxType::ReadShared).value(), 1u);
    EXPECT_EQ(rig.bus.transactions().value(), 2u);
    EXPECT_EQ(rig.bus.aborts().value(), 1u);
}

TEST(BusCounters, RecoveryTxBypassesProtectAndMaskSilencesMonitor)
{
    BusRig rig;
    monitor::BusMonitor monitor(2, MiB(1), 256);
    rig.bus.attachWatcher(2, monitor);
    monitor.table().set(0, ActionEntry::Protect);

    // Sanity: a consistency transaction against Protect aborts.
    EXPECT_TRUE(
        rig.issue(rig.shortTx(TxType::AssertOwnership, 0, 5)));

    // Recovery broadcasts are not consistency-related: the stale
    // Protect entry must not abort them.
    EXPECT_FALSE(rig.issue(rig.shortTx(TxType::Reclaim, 0, 5)));
    EXPECT_FALSE(rig.issue(rig.shortTx(TxType::BoardMask, 0, 5)));
    EXPECT_EQ(rig.bus.countOf(TxType::Reclaim).value(), 1u);
    EXPECT_EQ(rig.bus.countOf(TxType::BoardMask).value(), 1u);

    // A masked (declared-dead) monitor stops aborting entirely.
    monitor.setMasked(true);
    EXPECT_FALSE(
        rig.issue(rig.shortTx(TxType::AssertOwnership, 0, 5)));
}

// ----------------------------------------------------------- detector

/** A liveness-only probe: the report carries `alive` and nothing else. */
recover::FailureDetector::HealthFn
aliveProbe(const bool &alive)
{
    return [&alive] {
        recover::HealthReport report;
        report.alive = alive;
        return report;
    };
}

struct DetectorRig : BusRig
{
    explicit DetectorRig(recover::DetectorConfig cfg)
        : monitor(0, MiB(1), 256),
          detector(events, bus, 256, cfg)
    {
        bus.attachWatcher(0, monitor);
        detector.addBoard(0, &monitor, aliveProbe(alive));
        detector.setOnDead([this](std::uint32_t master) {
            deadMasters.push_back(master);
        });
        detector.setOnFence([](std::uint32_t, recover::SuspicionKind) {});
        detector.setOnUnfence([](std::uint32_t) {});
        detector.install();
    }

    monitor::BusMonitor monitor;
    recover::FailureDetector detector;
    bool alive = true;
    std::vector<std::uint32_t> deadMasters;
};

TEST(Detector, AbortStreakSuspectsProbesAndDeclares)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.maxProbes = 3;
    cfg.abortStreakThreshold = 4;
    cfg.sweepPeriod = 1u << 30; // only the abort-streak path
    DetectorRig rig(cfg);

    rig.monitor.table().set(0, ActionEntry::Protect);
    rig.alive = false;

    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(
            rig.issue(rig.shortTx(TxType::AssertOwnership, 0, 9)));

    // The 4th consecutive abort crossed the threshold; the suspicion's
    // probe chain (already drained by issue's events.run()) escalated
    // through maxProbes failed probes to a declaration.
    EXPECT_EQ(rig.detector.suspicions().value(), 1u);
    EXPECT_EQ(rig.detector.probes().value(), 3u);
    EXPECT_EQ(rig.detector.declarations().value(), 1u);
    EXPECT_EQ(rig.detector.falseSuspicions().value(), 0u);
    EXPECT_TRUE(rig.detector.declaredDead(0));
    ASSERT_EQ(rig.deadMasters.size(), 1u);
    EXPECT_EQ(rig.deadMasters[0], 0u);
}

TEST(Detector, SuccessResetsAbortStreak)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.abortStreakThreshold = 4;
    cfg.sweepPeriod = 1u << 30;
    DetectorRig rig(cfg);

    rig.monitor.table().set(0, ActionEntry::Protect);

    // 3 aborts, one success (entry lifted, as a live owner would),
    // 3 more aborts: never 4 *consecutive*, so no suspicion.
    for (int i = 0; i < 3; ++i)
        rig.issue(rig.shortTx(TxType::AssertOwnership, 0, 9));
    rig.monitor.table().set(0, ActionEntry::Ignore);
    rig.issue(rig.shortTx(TxType::AssertOwnership, 0, 9));
    rig.monitor.table().set(0, ActionEntry::Protect);
    for (int i = 0; i < 3; ++i)
        rig.issue(rig.shortTx(TxType::AssertOwnership, 0, 9));
    EXPECT_EQ(rig.detector.suspicions().value(), 0u);

    // One more consecutive abort crosses the threshold.
    rig.issue(rig.shortTx(TxType::AssertOwnership, 0, 9));
    EXPECT_EQ(rig.detector.suspicions().value(), 1u);
}

TEST(Detector, FalseSuspicionClearsOnFirstProbe)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.maxProbes = 3;
    cfg.abortStreakThreshold = 2;
    cfg.sweepPeriod = 1u << 30;
    DetectorRig rig(cfg);

    rig.monitor.table().set(0, ActionEntry::Protect);
    // Board stays alive: the first probe clears the suspicion.
    for (int i = 0; i < 2; ++i)
        rig.issue(rig.shortTx(TxType::AssertOwnership, 0, 9));

    EXPECT_EQ(rig.detector.suspicions().value(), 1u);
    EXPECT_EQ(rig.detector.probes().value(), 1u);
    EXPECT_EQ(rig.detector.falseSuspicions().value(), 1u);
    EXPECT_EQ(rig.detector.declarations().value(), 0u);
    EXPECT_FALSE(rig.detector.declaredDead(0));
    EXPECT_TRUE(rig.deadMasters.empty());
}

TEST(Detector, LivenessSweepCatchesSilentBoard)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.maxProbes = 2;
    cfg.sweepPeriod = 4;
    DetectorRig rig(cfg);

    rig.alive = false;
    // No aborts at all — the board owns nothing — but the liveness
    // sweep after 4 observed consistency transactions still finds it.
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(rig.issue(rig.shortTx(TxType::Notify, 0, 9)));

    EXPECT_EQ(rig.detector.suspicions().value(), 1u);
    EXPECT_TRUE(rig.detector.declaredDead(0));
}

TEST(Detector, RejectsZeroBabbleMinWords)
{
    // Zero words serviced would satisfy "0 spurious >= fraction * 0":
    // an idle, healthy board would draw babble suspicions.
    BusRig rig;
    recover::DetectorConfig cfg;
    cfg.babbleMinWords = 0;
    EXPECT_THROW(recover::FailureDetector(rig.events, rig.bus, 256, cfg),
                 FatalError);
}

TEST(Detector, InstallWithoutHooksIsFatal)
{
    BusRig rig;
    bool alive = true;
    recover::FailureDetector detector(rig.events, rig.bus, 256);
    detector.addBoard(0, nullptr, aliveProbe(alive));
    EXPECT_THROW(detector.install(), FatalError);
    // The dead hook alone is not enough: a fence or unfence with
    // nowhere to go would leave a sick board half-handled.
    detector.setOnDead([](std::uint32_t) {});
    EXPECT_THROW(detector.install(), FatalError);
    detector.setOnFence([](std::uint32_t, recover::SuspicionKind) {});
    EXPECT_THROW(detector.install(), FatalError);
    detector.setOnUnfence([](std::uint32_t) {});
    EXPECT_NO_THROW(detector.install());
}

// ------------------------------------------------- health witnesses

/** DetectorRig plus a mutable health report and fence/unfence logs. */
struct WitnessRig : BusRig
{
    explicit WitnessRig(recover::DetectorConfig cfg)
        : monitor(0, MiB(1), 256), detector(events, bus, 256, cfg)
    {
        bus.attachWatcher(0, monitor);
        detector.addBoard(0, &monitor, [this] { return health; });
        detector.setOnDead([this](std::uint32_t master) {
            deadMasters.push_back(master);
        });
        detector.setOnFence(
            [this](std::uint32_t master, recover::SuspicionKind kind) {
                fencedMasters.push_back(master);
                fenceKinds.push_back(kind);
            });
        detector.setOnUnfence([this](std::uint32_t master) {
            unfencedMasters.push_back(master);
        });
        detector.install();
    }

    monitor::BusMonitor monitor;
    recover::FailureDetector detector;
    recover::HealthReport health{};
    std::vector<std::uint32_t> deadMasters;
    std::vector<std::uint32_t> fencedMasters;
    std::vector<recover::SuspicionKind> fenceKinds;
    std::vector<std::uint32_t> unfencedMasters;
};

TEST(Witness, WedgeWitnessFencesUnresponsiveBoard)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.maxProbes = 2;
    cfg.sweepPeriod = 4;
    cfg.wedgeSweeps = 2;
    cfg.unfenceCheckNs = 5'000;
    cfg.unfenceChecks = 2;
    WitnessRig rig(cfg);

    // Alive but not responsive: backlog pending, epoch frozen (it
    // stays at the value snapshotted when the witness was attached).
    rig.health.responsive = false;
    rig.health.pendingWords = 3;

    // Two sweeps (4 observed transactions each) with a frozen epoch
    // cross wedgeSweeps; the probes see an unresponsive loop and the
    // declaration routes to a fence, not a failstop declaration.
    for (int i = 0; i < 8; ++i)
        rig.issue(rig.shortTx(TxType::Notify, 0, 9));

    EXPECT_EQ(rig.detector.wedgeSuspicions().value(), 1u);
    EXPECT_EQ(rig.detector.fences().value(), 1u);
    EXPECT_EQ(rig.detector.declarations().value(), 0u);
    EXPECT_TRUE(rig.detector.isFenced(0));
    EXPECT_EQ(rig.detector.fenceKindOf(0),
              recover::SuspicionKind::Wedge);
    ASSERT_EQ(rig.fencedMasters.size(), 1u);
    EXPECT_EQ(rig.fencedMasters[0], 0u);
    EXPECT_EQ(rig.fenceKinds[0], recover::SuspicionKind::Wedge);
    // The board never recovered: both rechecks failed, fence stands.
    EXPECT_TRUE(rig.unfencedMasters.empty());
    EXPECT_TRUE(rig.deadMasters.empty());
}

TEST(Witness, FalsePositiveFenceUnfencesHealthyBoard)
{
    recover::DetectorConfig cfg;
    cfg.unfenceCheckNs = 5'000;
    cfg.unfenceChecks = 2;
    WitnessRig rig(cfg);

    // Operator (or over-eager policy) fences a perfectly healthy
    // board: the first recovery recheck sees it answering and lifts
    // the quarantine.
    rig.detector.fenceBoard(0, recover::SuspicionKind::Wedge);
    EXPECT_TRUE(rig.detector.isFenced(0));
    rig.events.run();

    EXPECT_EQ(rig.detector.unfences().value(), 1u);
    EXPECT_FALSE(rig.detector.isFenced(0));
    ASSERT_EQ(rig.unfencedMasters.size(), 1u);
    EXPECT_EQ(rig.unfencedMasters[0], 0u);
}

TEST(Witness, BabbleWitnessFencesThenSilenceUnfences)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.maxProbes = 2;
    cfg.sweepPeriod = 4;
    cfg.babbleMinWords = 4;
    cfg.babbleFraction = 0.5;
    cfg.babbleSweeps = 1; // single-window flow test; strikes below
    cfg.unfenceCheckNs = 10'000;
    cfg.unfenceChecks = 2;
    WitnessRig rig(cfg);

    // Since the last sweep the board serviced 8 words, all spurious.
    rig.health.wordsServiced = 8;
    rig.health.spuriousWords = 8;
    rig.health.fifoPushed = 16;

    for (int i = 0; i < 3; ++i)
        rig.issue(rig.shortTx(TxType::Notify, 0, 9));
    // The babble keeps flowing between the imminent suspicion (at the
    // 4th transaction, a short-tx time from now) and its first probe
    // (a full deadline later).
    rig.events.scheduleIn(500, [&rig] {
        rig.health.wordsServiced += 8;
        rig.health.spuriousWords += 8;
        rig.health.fifoPushed += 8;
    }, "babble-continues");
    rig.issue(rig.shortTx(TxType::Notify, 0, 9));

    EXPECT_EQ(rig.detector.babbleSuspicions().value(), 1u);
    EXPECT_EQ(rig.detector.fences().value(), 1u);
    ASSERT_EQ(rig.fenceKinds.size(), 1u);
    EXPECT_EQ(rig.fenceKinds[0], recover::SuspicionKind::Babble);
    // After the fence the FIFO went silent (fifoPushed stopped
    // moving): one quiet recheck window proves the fault cleared.
    EXPECT_EQ(rig.detector.unfences().value(), 1u);
    EXPECT_FALSE(rig.detector.isFenced(0));
}

TEST(Witness, BoardDeadUnderWitnessSuspicionIsDeclaredNotFenced)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.maxProbes = 2;
    cfg.sweepPeriod = 4;
    cfg.babbleMinWords = 4;
    cfg.babbleFraction = 0.5;
    cfg.babbleSweeps = 1;
    WitnessRig rig(cfg);

    // A babbling board draws a witness suspicion, then failstops
    // outright before the first probe fires. Liveness trumps the
    // suspicion kind: the corpse is declared dead, not fenced — a
    // fence would be lifted by the first quiet recheck (a dead FIFO
    // is silent too) and the hazard would cycle forever.
    rig.health.wordsServiced = 8;
    rig.health.spuriousWords = 8;
    rig.health.fifoPushed = 16;
    for (int i = 0; i < 3; ++i)
        rig.issue(rig.shortTx(TxType::Notify, 0, 9));
    rig.events.scheduleIn(500, [&rig] {
        rig.health.alive = false;
    }, "board-dies");
    rig.issue(rig.shortTx(TxType::Notify, 0, 9));
    EXPECT_EQ(rig.detector.babbleSuspicions().value(), 1u);
    rig.events.run();

    EXPECT_EQ(rig.detector.declarations().value(), 1u);
    EXPECT_EQ(rig.detector.fences().value(), 0u);
    EXPECT_TRUE(rig.detector.declaredDead(0));
    ASSERT_EQ(rig.deadMasters.size(), 1u);
    EXPECT_EQ(rig.deadMasters[0], 0u);
    EXPECT_TRUE(rig.fencedMasters.empty());
}

TEST(Witness, BabbleNeedsSustainedWindows)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.sweepPeriod = 4;
    cfg.babbleMinWords = 4;
    cfg.babbleFraction = 0.5;
    cfg.babbleSweeps = 2;
    WitnessRig rig(cfg);

    auto sweep = [&rig] {
        for (int i = 0; i < 4; ++i)
            rig.issue(rig.shortTx(TxType::Notify, 0, 9));
    };

    // Window 1: all spurious — a healthy board can legitimately burn
    // one window on stale FIFO entries. One strike, no suspicion.
    rig.health.wordsServiced = 8;
    rig.health.spuriousWords = 8;
    sweep();
    EXPECT_EQ(rig.detector.babbleSuspicions().value(), 0u);

    // Window 2: clean — the strike count resets.
    rig.health.wordsServiced += 8;
    sweep();
    EXPECT_EQ(rig.detector.babbleSuspicions().value(), 0u);

    // Windows 3+4: spurious again, twice in a row — only now does the
    // witness call it babble.
    rig.health.wordsServiced += 8;
    rig.health.spuriousWords += 8;
    sweep();
    EXPECT_EQ(rig.detector.babbleSuspicions().value(), 0u);
    rig.health.wordsServiced += 8;
    rig.health.spuriousWords += 8;
    sweep();
    EXPECT_EQ(rig.detector.babbleSuspicions().value(), 1u);
}

TEST(Witness, FailSlowWitnessFencesAndStaysFenced)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.maxProbes = 2;
    cfg.sweepPeriod = 4;
    cfg.slowEwmaAlpha = 1.0;
    cfg.slowLatencyNs = 1'000;
    cfg.unfenceCheckNs = 5'000;
    cfg.unfenceChecks = 2;
    WitnessRig rig(cfg);

    // 4 words took 40us: 10us/word against a 1us threshold.
    rig.health.wordsServiced = 4;
    rig.health.serviceBusyNs = 40'000;

    for (int i = 0; i < 4; ++i)
        rig.issue(rig.shortTx(TxType::Notify, 0, 9));

    EXPECT_EQ(rig.detector.slowSuspicions().value(), 1u);
    EXPECT_EQ(rig.detector.fences().value(), 1u);
    EXPECT_EQ(rig.detector.fenceKindOf(0),
              recover::SuspicionKind::FailSlow);
    // Fail-slow boards are not rechecked: quarantine holds until an
    // operator rejoin.
    EXPECT_TRUE(rig.detector.isFenced(0));
    EXPECT_EQ(rig.detector.unfences().value(), 0u);
}

TEST(Witness, StuckTableEscalatesOnlyWithWriteEvidence)
{
    recover::DetectorConfig cfg;
    cfg.deadlineNs = 1'000;
    cfg.maxProbes = 3;
    cfg.abortStreakThreshold = 2;
    cfg.tableStuckStrikes = 2;
    cfg.sweepPeriod = 1u << 30; // only the abort-streak path
    WitnessRig rig(cfg);

    rig.monitor.table().set(0, ActionEntry::Protect);

    // Phase 1: three full streak rounds against a live owner that
    // never released the frame. Each suspicion clears on the first
    // probe, and without a visible release write none of them counts
    // as stuck-table evidence — a recovery-storm retry chain must
    // never get a live owner fenced.
    for (int round = 0; round < 3; ++round)
        for (int i = 0; i < 2; ++i)
            EXPECT_TRUE(rig.issue(
                rig.shortTx(TxType::AssertOwnership, 0, 9)));
    EXPECT_EQ(rig.detector.falseSuspicions().value(), 3u);
    EXPECT_EQ(rig.detector.stuckEscalations().value(), 0u);
    EXPECT_TRUE(rig.fencedMasters.empty());

    // Phase 2: the owner visibly releases the frame on the bus, but
    // its monitor drops the update (the table still reads Protect).
    EXPECT_FALSE(
        rig.issue(rig.shortTx(TxType::WriteActionTable, 0, 0)));
    ASSERT_EQ(rig.monitor.table().get(0), ActionEntry::Protect);

    // Phase 3: post-release streaks on the same frame are hard
    // evidence; tableStuckStrikes of them fence the board.
    for (int round = 0; round < 2; ++round)
        for (int i = 0; i < 2; ++i)
            EXPECT_TRUE(rig.issue(
                rig.shortTx(TxType::AssertOwnership, 0, 9)));
    EXPECT_EQ(rig.detector.stuckEscalations().value(), 1u);
    EXPECT_EQ(rig.detector.fences().value(), 1u);
    EXPECT_EQ(rig.detector.fenceKindOf(0),
              recover::SuspicionKind::StuckTable);
    EXPECT_TRUE(rig.detector.isFenced(0));
    // No recheck path for a stuck table: the fence stands.
    EXPECT_EQ(rig.detector.unfences().value(), 0u);
}

// ----------------------------------------------------- reclaim flow

TEST(Reclaim, FullFlowMasksDrainsReclaimsAndRestores)
{
    // vm-page-sized cache pages so backing-store images line up with
    // physical frames (the restore path requires matching geometry).
    constexpr std::uint32_t page = vm::vmPageBytes;
    BusRig rig(page);
    recover::RecoveryConfig rc;
    rc.detector.deadlineNs = 1'000;
    rc.detector.maxProbes = 2;
    rc.detector.sweepPeriod = 4;
    recover::RecoveryManager manager(rig.events, rig.bus, rig.memory,
                                     rc);

    monitor::BusMonitor monitor(0, MiB(1), page);
    rig.bus.attachWatcher(0, monitor);
    bool alive = true;
    manager.addBoard(0, &monitor, aliveProbe(alive));
    manager.install();

    // Backing store holds a checkpoint of frame 3 under ASID 7.
    backing::PageStore store(usec(1));
    std::vector<std::uint8_t> image(page, 0xAB);
    store.store(7, 3, image);
    manager.setBackingStore(&store, 7);

    std::uint64_t sweeps = 0;
    manager.setPostReclaimHook([&] { ++sweeps; });

    // The doomed board owns frame 3 Protect and frame 5 Shared, has a
    // word rotting in its FIFO, and frame 3's memory copy is stale.
    monitor.table().set(3, ActionEntry::Protect);
    monitor.table().set(5, ActionEntry::Shared);
    monitor.fifo().push(monitor::InterruptWord{});
    std::vector<std::uint8_t> stale(page, 0xCD);
    rig.memory.writeBlock(3 * page, stale.data(), page);

    // Failstop; the liveness sweep catches it.
    alive = false;
    for (int i = 0; i < 4; ++i)
        rig.issue(rig.shortTx(TxType::Notify, 0, 9));
    rig.events.run();

    EXPECT_EQ(manager.boardsDeclaredDead().value(), 1u);
    EXPECT_FALSE(manager.recovering());
    EXPECT_EQ(manager.recoveriesCompleted().value(), 1u);
    EXPECT_GT(manager.lastRecoveryNs(), 0u);
    EXPECT_EQ(sweeps, 1u);

    // Masked, drained, and the stale table wiped.
    EXPECT_TRUE(monitor.masked());
    EXPECT_TRUE(monitor.fifo().empty());
    EXPECT_EQ(monitor.table().get(3), ActionEntry::Ignore);
    EXPECT_EQ(monitor.table().get(5), ActionEntry::Ignore);

    // One Protect frame reclaimed and restored from the image store —
    // nothing lost — and one Shared frame dropped silently.
    EXPECT_EQ(manager.framesReclaimed().value(), 1u);
    EXPECT_EQ(manager.sharedDropped().value(), 1u);
    EXPECT_EQ(manager.pagesLost().value(), 0u);
    EXPECT_EQ(manager.pagesRestored().value(), 1u);
    EXPECT_EQ(rig.bus.countOf(TxType::BoardMask).value(), 1u);
    EXPECT_EQ(rig.bus.countOf(TxType::Reclaim).value(), 1u);

    // The restore DMA-wrote the checkpoint image over the stale copy.
    std::vector<std::uint8_t> now(page);
    rig.memory.readBlock(3 * page, now.data(), page);
    EXPECT_EQ(now, image);

    // With the entry cleared the frame is no longer stranded.
    EXPECT_FALSE(manager.isFrameOwnerDead(3 * page));
}

TEST(Reclaim, DeadBridgeStrandsEveryFrame)
{
    BusRig rig;
    recover::RecoveryConfig rc;
    rc.detector.deadlineNs = 500;
    rc.detector.maxProbes = 1;
    rc.detector.sweepPeriod = 2;
    recover::RecoveryManager manager(rig.events, rig.bus, rig.memory,
                                     rc);
    bool alive = true;
    manager.addBoard(7, nullptr, aliveProbe(alive));
    manager.install();

    // A live bridge's report carries `alive` alone: no pending or
    // serviced words, so no witness can fire however long it runs.
    const recover::DetectorConfig &dc = manager.detector().config();
    const std::uint64_t sweeps =
        10u * (dc.wedgeSweeps + dc.babbleSweeps);
    for (std::uint64_t i = 0; i < sweeps * dc.sweepPeriod; ++i)
        rig.issue(rig.shortTx(TxType::Notify, 0, 9));
    rig.events.run();
    EXPECT_EQ(manager.detector().suspicions().value(), 0u);

    EXPECT_FALSE(manager.isFrameOwnerDead(0));
    alive = false;
    for (int i = 0; i < 2; ++i)
        rig.issue(rig.shortTx(TxType::Notify, 0, 9));
    rig.events.run();

    EXPECT_EQ(manager.boardsDeclaredDead().value(), 1u);
    // A dead bridge strands every frame reached through it.
    EXPECT_TRUE(manager.isFrameOwnerDead(0));
    EXPECT_TRUE(manager.isFrameOwnerDead(17 * 256));
    // Bridges have no monitor to scan: nothing reclaimed.
    EXPECT_EQ(manager.framesReclaimed().value(), 0u);
}

// ------------------------------------------------------ determinism

TEST(Recovery, EnabledWithoutFaultsIsBitIdentical)
{
    auto run = [](bool recovery) {
        core::VmpSystem system(smallConfig(2, 256));
        recover::RecoveryManager *manager = nullptr;
        if (recovery)
            manager = &system.enableRecovery();
        auto gens = makeSources("atum2", 2, 6'000, 3);
        auto raw = rawSources(gens);
        const auto result = system.runTraces(raw);
        if (manager) {
            // Null-hook discipline: a fault-free run never suspects.
            EXPECT_EQ(manager->detector().suspicions().value(), 0u);
            EXPECT_EQ(manager->boardsDeclaredDead().value(), 0u);
        }
        return result;
    };

    const auto without = run(false);
    const auto with = run(true);
    EXPECT_EQ(without.elapsed, with.elapsed);
    EXPECT_EQ(without.totalRefs, with.totalRefs);
    EXPECT_EQ(without.totalMisses, with.totalMisses);
    EXPECT_EQ(without.busAborts, with.busAborts);
    EXPECT_EQ(without.writeBacks, with.writeBacks);
}

// ------------------------------------------------- flat kill / rejoin

TEST(Recovery, KillOneBoardReclaimsAndRunCompletes)
{
    core::VmpSystem system(smallConfig(4, 256));
    auto &checker = system.enableCoherenceCheckers();
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 64;
    auto &manager = system.enableRecovery(rc);
    system.killBoard(3, usec(300));

    auto gens = makeSources("atum2", 4, 12'000, 7);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);

    // The killed board stopped mid-trace; the other three finished.
    EXPECT_TRUE(system.controller(3).dead());
    EXPECT_GE(result.totalRefs, 3u * 12'000u);
    EXPECT_LT(result.totalRefs, 4u * 12'000u);

    EXPECT_EQ(manager.boardsDeclaredDead().value(), 1u);
    EXPECT_TRUE(manager.detector().declaredDead(3));
    EXPECT_EQ(manager.recoveriesCompleted().value(), 1u);
    EXPECT_FALSE(manager.recovering());
    EXPECT_TRUE(system.board(3).monitor.masked());
    // The board had run ~1000+ references: it held *something*.
    EXPECT_GE(manager.framesReclaimed().value() +
                  manager.sharedDropped().value(),
              1u);

    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
    EXPECT_EQ(checker.violations().value(), 0u) << reportsOf(checker);
}

TEST(Recovery, KilledBoardRejoinsAndFinishesItsTrace)
{
    core::VmpSystem system(smallConfig(4, 256));
    auto &checker = system.enableCoherenceCheckers();
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 64;
    auto &manager = system.enableRecovery(rc);
    system.killBoard(1, usec(300));
    system.rejoinBoard(1, msec(6));

    auto gens = makeSources("atum2", 4, 12'000, 11);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);

    // The rejoined board resumed its trace and completed it.
    EXPECT_EQ(result.totalRefs, 4u * 12'000u);
    EXPECT_FALSE(system.controller(1).dead());
    EXPECT_FALSE(system.board(1).monitor.masked());
    EXPECT_FALSE(manager.detector().declaredDead(1));
    EXPECT_FALSE(manager.recovering());

    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
    EXPECT_EQ(checker.violations().value(), 0u) << reportsOf(checker);
}

// ------------------------------------------- dead-owner timed waits

TEST(Recovery, DeadOwnerErrorSurfacesWithoutRecovery)
{
    auto cfg = smallConfig(2, 256);
    cfg.deadOwnerTimeoutNs = usec(300);
    core::VmpSystem system(cfg);
    system.attachIdleServicers();

    // CPU 1 writes a page: it now owns the frame Protect.
    const Addr va = 0x10000;
    bool done = false;
    system.controller(1).access(1, va, true, false,
                                [&](proto::AccessOutcome) {
                                    done = true;
                                });
    system.events().run();
    ASSERT_TRUE(done);

    // Failstop board 1. Its stale Protect entry keeps aborting.
    system.killBoard(1, system.events().now() + 1);
    system.events().run();
    ASSERT_TRUE(system.controller(1).dead());

    // CPU 0 writes the same page: retries against the dead owner
    // until the timed wait expires, then abandons with a structured
    // DeadOwnerError — recovery is NOT installed.
    std::size_t handled = 0;
    system.controller(0).setDeadOwnerHandler(
        [&](const proto::DeadOwnerError &) { ++handled; });
    done = false;
    system.controller(0).access(1, va, true, false,
                                [&](proto::AccessOutcome) {
                                    done = true;
                                });
    system.events().run();
    ASSERT_TRUE(done);

    EXPECT_EQ(system.controller(0).deadOwnerErrors().value(), 1u);
    EXPECT_EQ(handled, 1u);
    const auto &error = system.controller(0).lastDeadOwnerError();
    ASSERT_TRUE(error.has_value());
    EXPECT_GT(error->attempts, 0u);
    EXPECT_GE(error->now - error->started, usec(300));
    // No oracle installed: the owner is unresponsive, not known dead.
    EXPECT_FALSE(error->ownerKnownDead);
    // The error also shows up in the stats dump.
    std::ostringstream os;
    system.dumpStats(os);
    EXPECT_NE(os.str().find("dead_owner_errors"), std::string::npos);
}

// --------------------------------------------------- hier IBC death

TEST(Recovery, HierDeadInterBusBoardIsReclaimedGlobally)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    // Bound the stranded cluster's waits so the run terminates fast.
    cfg.deadOwnerTimeoutNs = usec(500);
    core::HierVmpSystem system(cfg);
    system.enableCoherenceCheckers();
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 32;
    system.enableRecovery(rc);
    system.killInterBusBoard(1, usec(500));

    auto gens = makeSources("atum2", 4, 4'000, 5);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);

    // Every CPU finished: cluster 1's stranded misses abandoned with
    // DeadOwnerErrors instead of hanging the event queue.
    EXPECT_EQ(result.totalRefs, 4u * 4'000u);
    EXPECT_TRUE(system.cluster(1).bridge->dead());

    // The global manager declared cluster 1's board dead and reclaimed
    // its global Protect frames into main memory.
    ASSERT_NE(system.root().recovery, nullptr);
    EXPECT_TRUE(system.root().recovery->detector().declaredDead(1));
    EXPECT_FALSE(system.root().recovery->recovering());
    EXPECT_TRUE(
        system.cluster(1).bridge->globalMonitor().masked());

    // Cluster 1's CPUs surfaced structured errors.
    std::uint64_t errors = 0;
    for (std::uint32_t cpu = 2; cpu < 4; ++cpu)
        errors += system.controller(cpu).deadOwnerErrors().value();
    EXPECT_GT(errors, 0u);

    // Single-owner holds at the global level and within the live
    // cluster (owners sweeps are valid at any time).
    EXPECT_EQ(system.root().checker->checkOwnersSweep(), 0u)
        << reportsOf(*system.root().checker);
    EXPECT_EQ(system.cluster(0).checker->checkOwnersSweep(), 0u)
        << reportsOf(*system.cluster(0).checker);
}

TEST(Recovery, QuiesceSkipsADeadInterBusBoard)
{
    // A dead client has nothing to drain, processor board or inter-bus
    // board alike: the dead bridge's rotting words must not fail
    // quiesce() once every live client is idle.
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    cfg.deadOwnerTimeoutNs = usec(500);
    core::HierVmpSystem system(cfg);
    fault::FaultSchedule s;
    s.seed = 1;
    s.crashInterBus(1, msec(1));
    system.enableFaultInjection(s);
    system.enableCoherenceCheckers();
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 32;
    system.enableRecovery(rc);

    auto gens = makeSources("atum2", 4, 4'000, 51);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);

    ASSERT_EQ(result.totalRefs, 4u * 4'000u);
    ASSERT_TRUE(system.cluster(1).bridge->dead());
    EXPECT_GT(system.cluster(1).bridge->pendingWords(), 0u);
    EXPECT_TRUE(system.quiesce());
}

// --------------------------------------------- partial-failure flow

TEST(Recovery, WedgedBoardIsFencedAndQuarantined)
{
    auto cfg = smallConfig(4, 256);
    // Bound the fenced board's stranded in-flight access.
    cfg.deadOwnerTimeoutNs = msec(1);
    core::VmpSystem system(cfg);
    fault::FaultSchedule s;
    s.wedgeMonitor(0, msec(1)); // never clears
    system.enableFaultInjection(s);
    auto &checker = system.enableCoherenceCheckers();
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 32;
    rc.detector.deadlineNs = 20'000;
    auto &manager = system.enableRecovery(rc);

    auto gens = makeSources("atum3", 4, 12'000, 13);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);

    // The wedge witness caught the frozen service loop and the board
    // was quarantined — fenced and reclaimed, not declared dead.
    EXPECT_EQ(manager.boardsFenced().value(), 1u);
    EXPECT_TRUE(manager.isFenced(0));
    EXPECT_EQ(manager.detector().fenceKindOf(0),
              recover::SuspicionKind::Wedge);
    EXPECT_GE(manager.lastFenceAt(), msec(1));
    EXPECT_EQ(manager.boardsDeclaredDead().value(), 0u);
    EXPECT_FALSE(system.controller(0).dead());
    EXPECT_TRUE(system.board(0).monitor.masked());

    // The survivors finished; the fenced board's trace is cut short.
    EXPECT_GE(result.totalRefs, 3u * 12'000u);
    EXPECT_LT(result.totalRefs, 4u * 12'000u);

    // Post-fence sweep: single-owner holds with the sick board out.
    EXPECT_EQ(checker.checkOwnersSweep(), 0u) << reportsOf(checker);
    EXPECT_EQ(checker.violations().value(), 0u) << reportsOf(checker);
}

TEST(Recovery, ClearedWedgeIsUnfencedAndBoardResumes)
{
    core::VmpSystem system(smallConfig(4, 256));
    fault::FaultSchedule s;
    s.wedgeMonitor(0, msec(1)).clearAt(msec(3));
    system.enableFaultInjection(s);
    auto &checker = system.enableCoherenceCheckers();
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 32;
    rc.detector.deadlineNs = 20'000;
    // Recheck window spans the scheduled clear tick.
    rc.detector.unfenceCheckNs = 500'000;
    rc.detector.unfenceChecks = 8;
    auto &manager = system.enableRecovery(rc);

    auto gens = makeSources("atum3", 4, 20'000, 17);
    auto raw = rawSources(gens);
    const auto result = system.runTraces(raw);

    // Fenced while wedged, unfenced by a recheck after the underlying
    // fault cleared; the board cold-restarted and finished its trace.
    EXPECT_EQ(manager.boardsFenced().value(), 1u);
    EXPECT_EQ(manager.boardsUnfenced().value(), 1u);
    EXPECT_FALSE(manager.isFenced(0));
    EXPECT_FALSE(system.controller(0).dead());
    EXPECT_FALSE(system.board(0).monitor.masked());
    EXPECT_EQ(result.totalRefs, 4u * 20'000u);

    EXPECT_TRUE(system.quiesce());
    EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
    EXPECT_EQ(checker.violations().value(), 0u) << reportsOf(checker);
}

// ------------------------------- hier partial faults and hot rejoin
//
// The fault paths of the two-level machine, pinned: board partial
// faults (onset and clear), a CPU crash with hot rejoin under the
// frame checkpoint, the wedged-IBC variant, and mixed stuck/slow
// boards, each on a 2x2 hier with checkers and recovery at both
// levels. The pinned run results and per-level recovery counters are
// the oracle that the machine keeps its event order.

struct HierFaultOutcome
{
    std::string result;
    /** "c0: ...", "c1: ...", "global: ..." recovery counter lines. */
    std::vector<std::string> levels;
    std::uint64_t onlineViolations = 0;
    std::uint64_t ownersSweep = 0;
};

std::string
recoverCounters(const recover::RecoveryManager &manager)
{
    std::ostringstream os;
    os << "dead=" << manager.boardsDeclaredDead().value()
       << " fenced=" << manager.boardsFenced().value()
       << " unfenced=" << manager.boardsUnfenced().value()
       << " reclaimed=" << manager.framesReclaimed().value()
       << " pages_lost=" << manager.pagesLost().value()
       << " restored=" << manager.pagesRestored().value()
       << " recoveries=" << manager.recoveriesCompleted().value();
    return os.str();
}

core::HierConfig
hierFaultConfig()
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig{256, 2, 16, true};
    cfg.memBytes = MiB(1);
    // Bound a quarantined board's stranded in-flight access.
    cfg.deadOwnerTimeoutNs = msec(1);
    return cfg;
}

/** Arm @p s on a 2x2 hier with checkers and recovery, run atum3. */
HierFaultOutcome
runHierFault(core::HierVmpSystem &system, const fault::FaultSchedule &s,
             bool checkpoint)
{
    system.enableFaultInjection(s);
    system.enableCoherenceCheckers();
    recover::RecoveryConfig rc;
    rc.detector.sweepPeriod = 32;
    rc.detector.deadlineNs = 20'000;
    // Recheck window spans the scheduled clear ticks.
    rc.detector.unfenceCheckNs = 500'000;
    rc.detector.unfenceChecks = 8;
    system.enableRecovery(rc);
    if (checkpoint)
        system.enableFrameCheckpoint();

    auto gens = makeSources("atum3", 4, 20'000, 17);
    auto raw = rawSources(gens);
    HierFaultOutcome out;
    out.result = system.runTraces(raw).toString();
    for (std::size_t k = 0; k < system.config().clusters; ++k) {
        out.levels.push_back("c" + std::to_string(k) + ": " +
                             recoverCounters(*system.cluster(k).recovery));
    }
    out.levels.push_back("global: " +
                         recoverCounters(*system.root().recovery));
    out.onlineViolations = system.totalViolations();
    for (std::size_t k = 0; k < system.config().clusters; ++k)
        out.ownersSweep += system.cluster(k).checker->checkOwnersSweep();
    out.ownersSweep += system.root().checker->checkOwnersSweep();
    return out;
}

TEST(HierPartialFault, WedgedBoardIsFencedAndStaysFenced)
{
    core::HierVmpSystem system(hierFaultConfig());
    fault::FaultSchedule s;
    s.wedgeMonitor(1, msec(1)); // never clears
    const auto out = runHierFault(system, s, false);

    EXPECT_EQ(out.result,
              "refs=60300 misses=3349 missRatio=5.5539% "
              "perf=0.0942369 busUtil=23.1607% aborts=3028 "
              "writeBacks=802 elapsed=70344.9us "
              "localUtil(mean/peak)=20.9368/27.1775% "
              "globalFetches=1779 globalWriteBacks=323 "
              "refs/s=857205");
    EXPECT_EQ(out.levels,
              (std::vector<std::string>{
                  "c0: dead=0 fenced=1 unfenced=0 reclaimed=4 "
                  "pages_lost=4 restored=0 recoveries=1",
                  "c1: dead=0 fenced=0 unfenced=0 reclaimed=0 "
                  "pages_lost=0 restored=0 recoveries=0",
                  "global: dead=0 fenced=1 unfenced=1 reclaimed=72 "
                  "pages_lost=72 restored=0 recoveries=1"}));
    EXPECT_EQ(out.onlineViolations, 0u);
    EXPECT_EQ(out.ownersSweep, 0u);
    EXPECT_TRUE(system.cluster(0).recovery->isFenced(1));
    EXPECT_EQ(system.cluster(0).recovery->detector().fenceKindOf(1),
              recover::SuspicionKind::Wedge);
    EXPECT_TRUE(system.board(1).monitor.masked());
}

TEST(HierPartialFault, ClearedWedgeIsUnfencedAndBoardResumes)
{
    core::HierVmpSystem system(hierFaultConfig());
    fault::FaultSchedule s;
    s.wedgeMonitor(1, msec(1)).clearAt(msec(3));
    const auto out = runHierFault(system, s, false);

    EXPECT_EQ(out.result,
              "refs=80000 misses=5053 missRatio=6.31625% "
              "perf=0.0837214 busUtil=27.8217% aborts=4877 "
              "writeBacks=1141 elapsed=87767.3us "
              "localUtil(mean/peak)=25.3296/25.651% "
              "globalFetches=2672 globalWriteBacks=451 "
              "refs/s=911501");
    EXPECT_EQ(out.levels,
              (std::vector<std::string>{
                  "c0: dead=0 fenced=1 unfenced=1 reclaimed=4 "
                  "pages_lost=4 restored=0 recoveries=1",
                  "c1: dead=0 fenced=0 unfenced=0 reclaimed=0 "
                  "pages_lost=0 restored=0 recoveries=0",
                  "global: dead=0 fenced=2 unfenced=2 reclaimed=52 "
                  "pages_lost=52 restored=0 recoveries=2"}));
    EXPECT_EQ(out.onlineViolations, 0u);
    EXPECT_EQ(out.ownersSweep, 0u);
    EXPECT_FALSE(system.cluster(0).recovery->isFenced(1));
    EXPECT_FALSE(system.controller(1).dead());
    EXPECT_FALSE(system.board(1).monitor.masked());
    EXPECT_EQ(system.checkFullAll(), 0u);
}

TEST(HierPartialFault, CrashedBoardRejoinsWithCheckpoint)
{
    core::HierVmpSystem system(hierFaultConfig());
    fault::FaultSchedule s;
    s.crashBoard(3, msec(1)).rejoinAt(msec(4));
    const auto out = runHierFault(system, s, true);

    EXPECT_EQ(out.result,
              "refs=80000 misses=5668 missRatio=7.085% "
              "perf=0.0612293 busUtil=30.706% aborts=7250 "
              "writeBacks=1298 elapsed=117277us "
              "localUtil(mean/peak)=22.6745/22.6774% "
              "globalFetches=3807 globalWriteBacks=750 "
              "refs/s=682146");
    EXPECT_EQ(out.levels,
              (std::vector<std::string>{
                  "c0: dead=0 fenced=0 unfenced=0 reclaimed=0 "
                  "pages_lost=0 restored=0 recoveries=0",
                  "c1: dead=1 fenced=0 unfenced=0 reclaimed=3 "
                  "pages_lost=0 restored=3 recoveries=1",
                  "global: dead=0 fenced=2 unfenced=2 reclaimed=46 "
                  "pages_lost=0 restored=46 recoveries=2"}));
    EXPECT_EQ(out.onlineViolations, 0u);
    EXPECT_EQ(out.ownersSweep, 0u);
    EXPECT_FALSE(system.controller(3).dead());
    EXPECT_FALSE(system.board(3).monitor.masked());
    EXPECT_EQ(system.faultInjector()
                  ->injected(fault::FaultKind::BoardCrash)
                  .value(), 1u);
}

TEST(HierPartialFault, WedgedInterBusBoardClears)
{
    core::HierVmpSystem system(hierFaultConfig());
    fault::FaultSchedule s;
    s.wedgeInterBus(1, msec(1)).clearAt(msec(3));
    const auto out = runHierFault(system, s, false);

    EXPECT_EQ(out.result,
              "refs=80000 misses=5423 missRatio=6.77875% "
              "perf=0.0708205 busUtil=27.9131% aborts=5974 "
              "writeBacks=1245 elapsed=102184us "
              "localUtil(mean/peak)=24.1289/24.2037% "
              "globalFetches=3024 globalWriteBacks=594 "
              "refs/s=782898");
    EXPECT_EQ(out.levels,
              (std::vector<std::string>{
                  "c0: dead=0 fenced=0 unfenced=0 reclaimed=0 "
                  "pages_lost=0 restored=0 recoveries=0",
                  "c1: dead=0 fenced=0 unfenced=0 reclaimed=0 "
                  "pages_lost=0 restored=0 recoveries=0",
                  "global: dead=0 fenced=5 unfenced=5 reclaimed=171 "
                  "pages_lost=171 restored=0 recoveries=5"}));
    EXPECT_EQ(out.onlineViolations, 0u);
    EXPECT_EQ(out.ownersSweep, 0u);
    EXPECT_FALSE(system.cluster(1).bridge->wedged());
    EXPECT_FALSE(system.cluster(1).bridge->dead());
}

TEST(HierPartialFault, StuckTableAndSlowBoard)
{
    core::HierVmpSystem system(hierFaultConfig());
    fault::FaultSchedule s;
    s.stickActionTable(2, msec(1));
    s.slowBoard(0, msec(1), 64);
    const auto out = runHierFault(system, s, false);

    EXPECT_EQ(out.result,
              "refs=60067 misses=2889 missRatio=4.80963% "
              "perf=0.11528 busUtil=21.3118% aborts=1639 "
              "writeBacks=666 elapsed=55384.7us "
              "localUtil(mean/peak)=21.5667/26.0322% "
              "globalFetches=1265 globalWriteBacks=325 "
              "refs/s=1.08454e+06");
    EXPECT_EQ(out.levels,
              (std::vector<std::string>{
                  "c0: dead=0 fenced=1 unfenced=0 reclaimed=0 "
                  "pages_lost=0 restored=0 recoveries=1",
                  "c1: dead=0 fenced=1 unfenced=1 reclaimed=3 "
                  "pages_lost=3 restored=0 recoveries=1",
                  "global: dead=0 fenced=0 unfenced=0 reclaimed=0 "
                  "pages_lost=0 restored=0 recoveries=0"}));
    EXPECT_EQ(out.onlineViolations, 0u);
    EXPECT_EQ(out.ownersSweep, 0u);
    EXPECT_EQ(system.faultInjector()
                  ->injected(fault::FaultKind::ActionTableStuck)
                  .value(),
              1u);
    EXPECT_EQ(system.faultInjector()
                  ->injected(fault::FaultKind::SlowBoard)
                  .value(),
              1u);
}

// -------------------- false suspicions across arbitration disciplines
//
// Queue-delay-inflated retry chains under priority or round-robin
// arbitration must never push a live owner past the abort-streak
// threshold into a declaration or fence (satellite: detector
// robustness against arbitration-induced latency).

class ArbitrationFalseSuspicion
    : public ::testing::TestWithParam<mem::Arbitration>
{
};

TEST_P(ArbitrationFalseSuspicion, LiveOwnersNeverDeclaredOrFenced)
{
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        auto cfg = smallConfig(4, 256);
        cfg.arbitration.discipline = GetParam();
        core::VmpSystem system(cfg);
        auto &checker = system.enableCoherenceCheckers();
        recover::RecoveryConfig rc;
        rc.detector.sweepPeriod = 64;
        auto &manager = system.enableRecovery(rc);

        // Hot sharing: heavy consistency traffic and long retry
        // chains against perfectly live owners.
        auto gens = makeSources("atum3", 4, 15'000, seed * 7);
        auto raw = rawSources(gens);
        const auto result = system.runTraces(raw);
        EXPECT_EQ(result.totalRefs, 4u * 15'000u);

        EXPECT_EQ(manager.detector().declarations().value(), 0u);
        EXPECT_EQ(manager.detector().fences().value(), 0u);
        EXPECT_EQ(manager.boardsDeclaredDead().value(), 0u);
        EXPECT_EQ(manager.fencedBoards(), 0u);
        EXPECT_TRUE(system.quiesce());
        EXPECT_EQ(checker.checkFull(), 0u) << reportsOf(checker);
        EXPECT_EQ(checker.violations().value(), 0u)
            << reportsOf(checker);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Disciplines, ArbitrationFalseSuspicion,
    ::testing::Values(mem::Arbitration::Fifo,
                      mem::Arbitration::Priority,
                      mem::Arbitration::RoundRobin),
    [](const ::testing::TestParamInfo<mem::Arbitration> &info) {
        switch (info.param) {
          case mem::Arbitration::Fifo: return std::string("fifo");
          case mem::Arbitration::Priority:
            return std::string("priority");
          default: return std::string("rr");
        }
    });

// --------------------------------------------------- torture matrix
//
// Registered under the "torture" ctest label, excluded from tier-1
// discovery (see tests/CMakeLists.txt). Board-crash schedules:
//   TortureBoardCrash: {kill, kill+rejoin} x {128,256,512}B pages
//                      x 3 seeds                          = 18 runs
//   TortureHierIbc:    {128,256}B pages x 2 seeds          = 4 runs

struct CrashTortureParams
{
    std::uint32_t pageBytes;
    bool rejoin;
};

std::string
crashName(const ::testing::TestParamInfo<CrashTortureParams> &info)
{
    std::ostringstream os;
    os << (info.param.rejoin ? "rejoin" : "kill") << "_p"
       << info.param.pageBytes;
    return os.str();
}

class TortureBoardCrash
    : public ::testing::TestWithParam<CrashTortureParams>
{
};

TEST_P(TortureBoardCrash, ZeroViolationsBoundedLoss)
{
    const auto &p = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        core::VmpSystem system(smallConfig(4, p.pageBytes));
        fault::FaultSchedule s;
        s.seed = seed;
        s.busAborts(0.01); // crash during background noise
        s.crashBoard(3, msec(1));
        if (p.rejoin)
            s.rejoinAt(msec(5));
        system.enableFaultInjection(s);
        auto &checker = system.enableCoherenceCheckers();
        recover::RecoveryConfig rc;
        rc.detector.sweepPeriod = 64;
        auto &manager = system.enableRecovery(rc);
        std::uint64_t trips = 0;
        system.setWatchdog(
            1'000, [&](const proto::WatchdogReport &) { ++trips; });

        auto gens = makeSources("atum2", 4, 8'000, seed);
        auto raw = rawSources(gens);
        const auto result = system.runTraces(raw);

        if (p.rejoin) {
            EXPECT_EQ(result.totalRefs, 4u * 8'000u)
                << "p=" << p.pageBytes << " seed=" << seed;
            EXPECT_FALSE(system.controller(3).dead());
        } else {
            EXPECT_TRUE(system.controller(3).dead());
            EXPECT_EQ(manager.boardsDeclaredDead().value(), 1u);
            EXPECT_FALSE(manager.recovering());
        }
        // Bounded loss: a board cannot lose more pages than its cache
        // holds frames (sets x ways).
        const std::uint64_t frames =
            system.config().cache.totalSlots();
        EXPECT_LE(manager.pagesLost().value(), frames)
            << "p=" << p.pageBytes << " seed=" << seed;

        EXPECT_TRUE(system.quiesce());
        EXPECT_EQ(checker.checkFull(), 0u)
            << "p=" << p.pageBytes << " rejoin=" << p.rejoin
            << " seed=" << seed << "\n" << reportsOf(checker);
        EXPECT_EQ(checker.violations().value(), 0u)
            << reportsOf(checker);
        EXPECT_EQ(trips, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Crash, TortureBoardCrash,
    ::testing::Values(CrashTortureParams{128, false},
                      CrashTortureParams{256, false},
                      CrashTortureParams{512, false},
                      CrashTortureParams{128, true},
                      CrashTortureParams{256, true},
                      CrashTortureParams{512, true}),
    crashName);

class TortureHierIbc : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TortureHierIbc, DeadBridgeNeverViolatesSingleOwner)
{
    const std::uint32_t page = GetParam();
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        core::HierConfig cfg;
        cfg.clusters = 2;
        cfg.cpusPerCluster = 2;
        cfg.cache = cache::CacheConfig{page, 2, 16, true};
        cfg.memBytes = MiB(1);
        cfg.deadOwnerTimeoutNs = usec(500);
        core::HierVmpSystem system(cfg);
        fault::FaultSchedule s;
        s.seed = seed;
        s.crashInterBus(1, msec(1));
        system.enableFaultInjection(s);
        system.enableCoherenceCheckers();
        recover::RecoveryConfig rc;
        rc.detector.sweepPeriod = 32;
        system.enableRecovery(rc);

        auto gens = makeSources("atum2", 4, 4'000, seed + 50);
        auto raw = rawSources(gens);
        const auto result = system.runTraces(raw);

        EXPECT_EQ(result.totalRefs, 4u * 4'000u)
            << "p=" << page << " seed=" << seed;
        EXPECT_TRUE(system.cluster(1).bridge->dead());
        EXPECT_EQ(system.root().checker->checkOwnersSweep(), 0u)
            << "p=" << page << " seed=" << seed << "\n"
            << reportsOf(*system.root().checker);
        EXPECT_EQ(system.cluster(0).checker->checkOwnersSweep(), 0u)
            << reportsOf(*system.cluster(0).checker);
        EXPECT_EQ(system.root().checker->violations().value(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Hier, TortureHierIbc,
                         ::testing::Values(128u, 256u),
                         [](const auto &info) {
                             std::ostringstream os;
                             os << "p" << info.param;
                             return os.str();
                         });

// Partial-failure torture: {wedge, babble, fail-slow} x page sizes
// x 3 seeds. Every injected partial failure must be detected and
// fenced, with zero post-fence invariant violations, no false
// declarations, and no second board swept up in the quarantine.

struct PartialTortureParams
{
    fault::FaultKind kind;
    std::uint32_t pageBytes;
};

std::string
partialName(const ::testing::TestParamInfo<PartialTortureParams> &info)
{
    std::ostringstream os;
    switch (info.param.kind) {
      case fault::FaultKind::MonitorWedge:
        os << "wedge";
        break;
      case fault::FaultKind::FifoBabble:
        os << "babble";
        break;
      default:
        os << "slow";
        break;
    }
    os << "_p" << info.param.pageBytes;
    return os.str();
}

class TorturePartialFault
    : public ::testing::TestWithParam<PartialTortureParams>
{
};

TEST_P(TorturePartialFault, DetectedFencedZeroViolations)
{
    const auto &p = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto cfg = smallConfig(4, p.pageBytes);
        cfg.deadOwnerTimeoutNs = msec(1);
        core::VmpSystem system(cfg);
        fault::FaultSchedule s;
        s.seed = seed;
        s.busAborts(0.01); // background noise
        switch (p.kind) {
          case fault::FaultKind::MonitorWedge:
            s.wedgeMonitor(2, msec(1));
            break;
          case fault::FaultKind::FifoBabble:
            s.babbleFifo(2, msec(1), 0.8);
            break;
          default:
            s.slowBoard(2, msec(1), 64);
            break;
        }
        auto &injector = system.enableFaultInjection(s);
        auto &checker = system.enableCoherenceCheckers();
        recover::RecoveryConfig rc;
        rc.detector.sweepPeriod = 32;
        rc.detector.deadlineNs = 20'000;
        auto &manager = system.enableRecovery(rc);
        std::uint64_t trips = 0;
        system.setWatchdog(
            1'000, [&](const proto::WatchdogReport &) { ++trips; });

        auto gens = makeSources("atum3", 4, 8'000, seed);
        auto raw = rawSources(gens);
        const auto result = system.runTraces(raw);

        const std::string ctx = ::testing::PrintToString(seed) +
            " p=" + std::to_string(p.pageBytes);
        EXPECT_GT(injector.injected(p.kind).value(), 0u) << ctx;
        // Detected and fenced — the sick board, and only it.
        EXPECT_TRUE(manager.isFenced(2)) << ctx;
        EXPECT_EQ(manager.fencedBoards(), 1u) << ctx;
        EXPECT_EQ(manager.boardsDeclaredDead().value(), 0u) << ctx;
        EXPECT_GE(manager.lastFenceAt(), msec(1)) << ctx;
        // Survivors ran to completion.
        EXPECT_GE(result.totalRefs, 3u * 8'000u) << ctx;
        // Zero post-fence invariant violations, silent watchdog.
        EXPECT_EQ(checker.checkOwnersSweep(), 0u)
            << ctx << "\n" << reportsOf(checker);
        EXPECT_EQ(checker.violations().value(), 0u)
            << ctx << "\n" << reportsOf(checker);
        EXPECT_EQ(trips, 0u) << ctx;
    }
}

std::vector<PartialTortureParams>
partialParams()
{
    std::vector<PartialTortureParams> params;
    for (const auto kind :
         {fault::FaultKind::MonitorWedge, fault::FaultKind::FifoBabble,
          fault::FaultKind::SlowBoard})
        for (std::uint32_t page : {128u, 256u})
            params.push_back({kind, page});
    return params;
}

INSTANTIATE_TEST_SUITE_P(Partial, TorturePartialFault,
                         ::testing::ValuesIn(partialParams()),
                         partialName);

} // namespace
} // namespace vmp
