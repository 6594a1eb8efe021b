/**
 * @file
 * Failure detector: failstop liveness plus a partial-failure *health
 * witness*. The paper's consistency protocol assumes every board
 * eventually services its bus-monitor interrupts; boards can break that
 * assumption in more ways than halting:
 *
 *  - *failstop*: the software is gone. Caught by an *abort streak*
 *    (the same frame's consistency transactions keep aborting — a live
 *    owner resolves the conflict within a handful of retries, a dead
 *    one never does) or by a *sweep* (every sweepPeriod observed
 *    consistency transactions, each board's HealthFn is polled once
 *    and a report without `alive` draws a suspicion).
 *  - *wedged*: the service loop stops draining the FIFO but the board
 *    is not dead — its report still answers alive while the monitor
 *    hardware keeps aborting against stale Protect entries.
 *    Caught by the progress-epoch witness: backlog pending with a
 *    frozen service epoch across wedgeSweeps consecutive sweeps.
 *  - *babbling*: the FIFO delivers mostly garbage — the board stays
 *    alive and busy, wasting its service loop on spurious words.
 *    Caught by the spurious-fraction witness.
 *  - *fail-slow*: service works but takes many times longer than it
 *    should. Caught by an EWMA of per-word service latency.
 *  - *stuck table*: updates are silently dropped, so released entries
 *    keep aborting while the software truthfully answers probes alive.
 *    Caught by escalation — repeated abort-streak suspicions answered
 *    alive.
 *
 * A failstop declaration fires the DeadFn (full reclaim). The partial
 * kinds instead fire the FenceFn — quarantine rather than burial — and
 * a bounded unfence-recheck chain can clear a fence whose underlying
 * fault recovered (or was a false positive): a formerly wedged board
 * that answers responsive again, or a fenced babbler whose FIFO has
 * gone silent, is handed back via the UnfenceFn for a cold rejoin.
 *
 * Determinism and drain-friendliness: the detector consumes no
 * randomness and schedules *no standing periodic events* — probes are
 * scheduled only while a suspicion is pending, unfence rechecks only
 * while a board is fenced, and every chain is finite (maxProbes /
 * unfenceChecks), so an event queue with no other work still drains.
 * In a fault-free run the detector observes transactions but never
 * suspects anything: behavior is bit-identical to a run without it.
 */

#ifndef VMP_RECOVER_FAILURE_DETECTOR_HH
#define VMP_RECOVER_FAILURE_DETECTOR_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::recover
{

/** Detection policy knobs. */
struct DetectorConfig
{
    /** Delay from suspicion to the first probe. */
    Tick deadlineNs = 100'000;
    /** Probes before a Suspect board is declared dead. */
    std::uint32_t maxProbes = 3;
    /**
     * Consecutive aborts of consistency transactions against one frame
     * before the frame's Protect owner is suspected. Live-owner retry
     * chains stay far below this.
     */
    std::uint64_t abortStreakThreshold = 16;
    /** Observed consistency transactions between sweeps. */
    std::uint64_t sweepPeriod = 256;

    // --- health-witness knobs ---
    /** Consecutive sweeps with backlog pending and a frozen progress
     *  epoch before a wedge suspicion. */
    std::uint32_t wedgeSweeps = 3;
    /** Minimum words serviced per sweep before the babble witness
     *  judges the spurious fraction at all; must be nonzero, or an
     *  idle board (0 of 0 words spurious) would look like a babbler. */
    std::uint64_t babbleMinWords = 8;
    /** Spurious fraction of serviced words, in (0, 1], that triggers
     *  a babble suspicion. At 1.0 only an all-spurious window fires. */
    double babbleFraction = 0.6;
    /** Consecutive over-threshold sweeps before a babble suspicion.
     *  One sweep window is a handful of words — under heavy sharing a
     *  healthy board can legitimately service a burst of stale FIFO
     *  entries (frames it already released) that clears the fraction
     *  in a single window. Only a babbler sustains it. */
    std::uint32_t babbleSweeps = 3;
    /** Smoothing factor of the per-word service-latency EWMA. */
    double slowEwmaAlpha = 0.25;
    /** EWMA per-word service latency that triggers a fail-slow
     *  suspicion (0 disables). */
    Tick slowLatencyNs = 50'000;
    /** Abort-streak suspicions answered alive before the owner's
     *  action table is judged stuck and the board fenced. */
    std::uint32_t tableStuckStrikes = 3;
    /** Delay between unfence rechecks of a fenced board. */
    Tick unfenceCheckNs = 200'000;
    /** Rechecks before a fence is left standing for good (bounds the
     *  event chain so the queue always drains). */
    std::uint32_t unfenceChecks = 4;
};

/** Why a board is (or was) under suspicion. */
enum class SuspicionKind : std::uint8_t
{
    None = 0,
    Failstop,   //!< software gone: abort streak / failed liveness
    Wedge,      //!< service loop stopped making progress
    Babble,     //!< FIFO delivering mostly spurious words
    FailSlow,   //!< per-word service latency inflated
    StuckTable, //!< table ignores updates; alive but keeps aborting
};

const char *suspicionKindName(SuspicionKind kind);

/**
 * What one health probe learns about a board. Gathered by the board's
 * HealthFn from externally observable evidence (service-loop counters
 * a watchdog kernel could read); must be cheap and side-effect free.
 * A liveness-only client (a cluster-bus bridge) reports `alive` alone:
 * with no pending or serviced words, no witness can fire on it.
 */
struct HealthReport
{
    /** Software not failstopped. */
    bool alive = true;
    /** The service loop answered the probe request (a wedged loop
     *  cannot; a slow one still does, late). */
    bool responsive = true;
    /** Service-loop progress epoch (monotonic while healthy). */
    std::uint64_t progressEpoch = 0;
    /** Interrupt words currently queued awaiting service. */
    std::uint64_t pendingWords = 0;
    /** Cumulative interrupt words serviced. */
    std::uint64_t wordsServiced = 0;
    /** Cumulative words found spurious/stale when serviced. */
    std::uint64_t spuriousWords = 0;
    /** Cumulative service-software CPU time, accrued per word as it
     *  is taken up. Deliberately excludes bus-wait time: a survivor
     *  stalled retrying against a sick peer is not itself slow. */
    Tick serviceBusyNs = 0;
    /** Cumulative words pushed into the board's interrupt FIFO. */
    std::uint64_t fifoPushed = 0;
};

/**
 * Bus-clocked failure detector for one bus segment. Boards register
 * with a bus-master id, an optional monitor (whose action table is
 * consulted to map an abort streak on a frame to the board that owns
 * it) and the one HealthFn that sweeps and probes poll.
 */
class FailureDetector
{
  public:
    /** Fired exactly once per declaration, with the dead master id. */
    using DeadFn = std::function<void(std::uint32_t master)>;
    /** Gathers a HealthReport; must be cheap and side-effect free. */
    using HealthFn = std::function<HealthReport()>;
    /** Fired once per fence, with the quarantined master and the
     *  suspicion kind that condemned it. */
    using FenceFn =
        std::function<void(std::uint32_t master, SuspicionKind kind)>;
    /** Fired when an unfence recheck clears a fenced board. */
    using UnfenceFn = std::function<void(std::uint32_t master)>;

    FailureDetector(EventQueue &events, mem::VmeBus &bus,
                    std::uint32_t page_bytes,
                    DetectorConfig config = {});

    /**
     * Register a board with its probe. @p monitor may be null (e.g. a
     * bridge whose local table is not visible on this bus): such a
     * board is only ever caught by sweeps, never by abort streaks.
     */
    void addBoard(std::uint32_t master,
                  const monitor::BusMonitor *monitor, HealthFn health);

    /** The three hooks are required: install() fatals if one is unset. */
    void setOnDead(DeadFn on_dead) { onDead_ = std::move(on_dead); }
    void setOnFence(FenceFn on_fence)
    {
        onFence_ = std::move(on_fence);
    }
    void setOnUnfence(UnfenceFn on_unfence)
    {
        onUnfence_ = std::move(on_unfence);
    }

    /** Start observing the bus. */
    void install();

    /** A previously declared-dead board is back: trust it again. */
    void markRejoined(std::uint32_t master);

    bool declaredDead(std::uint32_t master) const;
    /** True while @p master is quarantined. */
    bool isFenced(std::uint32_t master) const;
    /** Suspicion kind that fenced @p master (None if not fenced). */
    SuspicionKind fenceKindOf(std::uint32_t master) const;

    /**
     * Quarantine @p master directly (bypassing the witness): used by
     * tests and as an operator override. Fires the FenceFn and starts
     * the same unfence-recheck chain a witness fence would.
     */
    void fenceBoard(std::uint32_t master, SuspicionKind kind);

    const DetectorConfig &config() const { return config_; }

    const Counter &suspicions() const { return suspicions_; }
    const Counter &probes() const { return probes_; }
    const Counter &falseSuspicions() const { return falseSuspicions_; }
    const Counter &declarations() const { return declarations_; }
    /** Wedge-witness suspicions (frozen epoch with backlog). */
    const Counter &wedgeSuspicions() const { return wedgeSuspicions_; }
    /** Babble-witness suspicions (spurious fraction). */
    const Counter &babbleSuspicions() const
    {
        return babbleSuspicions_;
    }
    /** Fail-slow suspicions (service-latency EWMA). */
    const Counter &slowSuspicions() const { return slowSuspicions_; }
    /** Stuck-table escalations (streak suspicions answered alive). */
    const Counter &stuckEscalations() const
    {
        return stuckEscalations_;
    }
    const Counter &fences() const { return fences_; }
    const Counter &unfences() const { return unfences_; }

    void registerStats(StatGroup &group) const;

  private:
    enum class BoardState : std::uint8_t
    {
        Live,
        Suspect,
        Fenced,
        Dead,
    };

    /** Sentinel for "no frame tracked". */
    static constexpr std::uint64_t kNoFrame = ~std::uint64_t{0};

    struct Board
    {
        std::uint32_t master;
        const monitor::BusMonitor *monitor;
        HealthFn health;
        BoardState state = BoardState::Live;
        SuspicionKind kind = SuspicionKind::None;
        /** Current suspicion came from an abort streak (vs sweep). */
        bool streakOrigin = false;
        std::uint32_t probeAttempt = 0;
        Tick probeDelay = 0;

        // Witness state, updated once per sweep.
        std::uint64_t lastEpoch = 0;
        std::uint64_t lastServiced = 0;
        std::uint64_t lastSpurious = 0;
        Tick lastBusyNs = 0;
        std::uint32_t wedgeStrikes = 0;
        std::uint32_t babbleStrikes = 0;
        std::uint32_t streakStrikes = 0;
        double latencyEwma = 0.0;
        bool ewmaPrimed = false;

        // Stuck-table evidence. A strike counts only when a
        // *Protect-entry* abort streak re-forms on a frame whose
        // table entry the owner had already visibly rewritten on the
        // bus — impossible for a live owner (every writable value
        // replaces Protect, and a later legitimate re-acquisition
        // clears the evidence below), inevitable for a stuck table
        // (the write was silently dropped and the stale Protect
        // keeps aborting). Shared-entry write-back aborts are normal
        // protocol behaviour after a downgrade and never count.
        /** Frame behind the current streak-origin suspicion. */
        std::uint64_t streakFrame = kNoFrame;
        /** The aborting entry observed for that streak was Protect. */
        bool streakProtect = false;
        /** Frame whose post-write aborts are being tracked. */
        std::uint64_t stuckFrame = kNoFrame;
        /** The owner completed a WriteActionTable covering stuckFrame
         *  since it was armed (and has not legitimately re-acquired
         *  the frame since). */
        bool stuckWriteSeen = false;

        // Snapshots taken at suspicion time (probe answers).
        std::uint64_t suspectEpoch = 0;
        std::uint64_t suspectServiced = 0;
        std::uint64_t suspectSpurious = 0;

        // Unfence-recheck state.
        std::uint32_t recheckCount = 0;
        std::uint64_t recheckPushedBase = 0;
    };

    void onTransaction(const mem::BusTransaction &tx,
                       const mem::TxResult &result);
    void suspectOwnerOf(std::uint64_t frame, mem::TxType type);
    /** Evaluate the health witnesses of one Live or Suspect board
     *  against this sweep's report @p r. */
    void witnessSweep(Board &board, const HealthReport &r);
    void suspect(Board &board, SuspicionKind kind, bool streak_origin,
                 std::uint64_t streak_frame = kNoFrame,
                 bool streak_protect = false);
    void probe(Board &board);
    /** Did the board answer the pending probe, per suspicion kind? */
    bool probeAnswered(Board &board);
    void declare(Board &board);
    void fence(Board &board, SuspicionKind kind);
    void scheduleRecheck(Board &board);
    void recheck(Board &board);
    /** Reset witness state and resync snapshots (rejoin/unfence). */
    void resetWitness(Board &board);
    Board *find(std::uint32_t master);
    const Board *find(std::uint32_t master) const;

    EventQueue &events_;
    mem::VmeBus &bus_;
    std::uint32_t pageBytes_;
    DetectorConfig config_;
    DeadFn onDead_;
    FenceFn onFence_;
    UnfenceFn onUnfence_;
    bool installed_ = false;

    /** Stable addresses: probe events capture Board pointers. */
    std::deque<Board> boards_;
    /** Consecutive aborts per frame (erased on any success). */
    std::unordered_map<std::uint64_t, std::uint64_t> abortStreaks_;
    std::uint64_t observed_ = 0;

    Counter suspicions_;
    Counter probes_;
    Counter falseSuspicions_;
    Counter declarations_;
    Counter wedgeSuspicions_;
    Counter babbleSuspicions_;
    Counter slowSuspicions_;
    Counter stuckEscalations_;
    Counter fences_;
    Counter unfences_;
};

} // namespace vmp::recover

#endif // VMP_RECOVER_FAILURE_DETECTOR_HH
