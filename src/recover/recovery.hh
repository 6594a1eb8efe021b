/**
 * @file
 * Recovery coordinator: turns a FailureDetector declaration into a
 * completed reclaim of everything the dead board owned, restoring the
 * single-owner invariant the paper's protocol depends on.
 *
 * Declare-dead flow, per board:
 *  1. mask the board's bus monitor (its stale Protect entries stop
 *     aborting live traffic) and drain its interrupt FIFO — the words
 *     would never be serviced;
 *  2. broadcast one BoardMask transaction announcing the masking (bus
 *     occupancy + an ordering point for observers);
 *  3. scan the masked monitor's action table: Shared/Notify entries are
 *     dropped silently (clean copies — memory is authoritative),
 *     Protect entries are queued for reclaim;
 *  4. for each Protect frame, after kReclaimServiceNs of coordinator
 *     service time, broadcast a Reclaim transaction and clear the
 *     entry. The only valid copy of a Protect frame lived in the dead
 *     board's cache; if an image store is attached (e.g. the memory
 *     tier shadowed by a backing::FrameCheckpointer), the coordinator
 *     re-fetches the last globally visible image and DMA-restores it
 *     to memory (recover.pages_restored) — a frame with no usable
 *     image is counted lost (recover.pages_lost);
 *  5. record time-to-recover and fire the post-reclaim hook — wired by
 *     the system to an immediate CoherenceChecker owners sweep.
 *
 * The manager implements proto::DeadOwnerOracle: while a declared-dead
 * board still holds an unreclaimed Protect entry for a frame (or a
 * bridge to the frame's home bus is dead), controllers waiting on that
 * frame learn their wait is hopeless and abandon with a structured
 * DeadOwnerError instead of hanging.
 *
 * Fencing (partial failures): a wedged, babbling, fail-slow or
 * stuck-table board is sick rather than silent, so the detector's
 * FenceFn triggers *quarantine* instead of burial — park the board's
 * reference stream, fence its requests off at the bus, mask its
 * monitor and drain its FIFO, then run the same reclaim scan so its
 * frames return to service. A fenced board keeps its Record and may be
 * *unfenced* when the detector's recheck finds the fault cleared (or
 * the fence was a false positive): the bus fence lifts, the monitor
 * unmasks over its now-clean table, and the resync hook cold-rejoins
 * the board.
 *
 * Failure model: failstop plus the partial-failure kinds above.
 * Arbitrary Byzantine behavior (a live board emitting adversarially
 * wrong protocol traffic) remains out of scope; the babble model is
 * restricted to garbage *interrupt* words, which degrade service but
 * cannot forge ownership.
 */

#ifndef VMP_RECOVER_RECOVERY_HH
#define VMP_RECOVER_RECOVERY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "backing/page_store.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "proto/dead_owner.hh"
#include "recover/failure_detector.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::recover
{

/** Coordinator software service time per reclaimed frame. */
inline constexpr Tick kReclaimServiceNs = 3000;
/** Bus-master id the coordinator issues transactions as; must not
 *  collide with any CPU, bridge or DMA device. */
inline constexpr std::uint32_t kCoordinatorMaster = 0xFFFF;

/** Coordinator policy knobs: the detection policy. */
struct RecoveryConfig
{
    DetectorConfig detector;
};

/**
 * One bus segment's recovery coordinator. Owns a FailureDetector and
 * reacts to its declarations. Boards register with their (mutable)
 * monitor so the coordinator can mask it and clear its table; bridges
 * register with no monitor — a dead bridge strands every frame reached
 * through it, so the oracle answers "dead owner" for all frames until
 * the bridge rejoins (bridge boards do not hot-rejoin in this model).
 */
class RecoveryManager final : public proto::DeadOwnerOracle
{
  public:
    RecoveryManager(EventQueue &events, mem::VmeBus &bus,
                    mem::PhysMem &memory, RecoveryConfig config = {});

    /**
     * Register a board and its probe. A board with a @p monitor gets
     * full mask-and-reclaim handling. A null @p monitor registers a
     * bridge (inter-bus cache board) on its *local* bus: detection
     * only, no reclaim — the bridge's global-side frames are reclaimed
     * by the global bus's own manager, where the bridge registers with
     * its global monitor.
     */
    void addBoard(std::uint32_t master, monitor::BusMonitor *monitor,
                  FailureDetector::HealthFn health);

    /** Start observing the bus. */
    void install();

    /**
     * Attach the page source for lost-page restoration. @p asid is the
     * address-space key the system checkpoints physical frames under
     * (vpn == frame number).
     */
    void setBackingStore(backing::PageStore *store, Asid asid);

    /** Fired after each completed reclaim (checker sweep hook). */
    void setPostReclaimHook(std::function<void()> hook);

    /**
     * Hooks bracketing a quarantine, wired by the system: @p park
     * stops the fenced board's reference stream (its bus requests are
     * already being dropped; parking keeps the workload model honest),
     * @p resync cold-rejoins the board after an unfence — wipe its
     * software state and resume. Either may be null.
     */
    void setFenceHooks(std::function<void(std::uint32_t)> park,
                       std::function<void(std::uint32_t)> resync);

    /**
     * Attach (or detach, with nullptr) an event tracer. On @p track:
     * a RecoveryBegin instant at declaration, a Reclaim instant per
     * reclaimed frame, and one Recovery span covering declaration to
     * reclaim-complete. Observation only.
     */
    void
    setTracer(obs::EventTracer *tracer, std::uint16_t track)
    {
        tracer_ = tracer;
        traceTrack_ = track;
    }

    /**
     * A killed board hot-rejoined: trust it again. Fatal while its
     * reclaim is still in flight — the system must sequence rejoin
     * after recovery completes.
     */
    void markRejoined(std::uint32_t master);

    // --- proto::DeadOwnerOracle ---
    bool isFrameOwnerDead(Addr paddr) const override;

    FailureDetector &detector() { return detector_; }
    const FailureDetector &detector() const { return detector_; }
    const RecoveryConfig &config() const { return config_; }

    /** Boards currently declared dead (reclaimed or in progress). */
    std::uint64_t deadBoards() const;
    /** Boards currently fenced (quarantined, not dead). */
    std::uint64_t fencedBoards() const;
    /** True while @p master is quarantined. */
    bool isFenced(std::uint32_t master) const;
    /** True while any board's reclaim is still in flight. */
    bool recovering() const;
    /** Declaration-to-reclaim-complete time of the last recovery. */
    Tick lastRecoveryNs() const { return lastRecoveryNs_; }
    /** Tick of the most recent fence (detection-latency probes). */
    Tick lastFenceAt() const { return lastFenceAt_; }

    const Counter &boardsDeclaredDead() const { return boardsDead_; }
    const Counter &boardsFenced() const { return boardsFenced_; }
    const Counter &boardsUnfenced() const { return boardsUnfenced_; }
    const Counter &framesReclaimed() const { return framesReclaimed_; }
    const Counter &sharedDropped() const { return sharedDropped_; }
    const Counter &pagesLost() const { return pagesLost_; }
    const Counter &pagesRestored() const { return pagesRestored_; }
    const Counter &recoveriesCompleted() const { return recoveries_; }

    /** Registers coordinator and detector stats into @p group. */
    void registerStats(StatGroup &group) const;

  private:
    struct Record
    {
        std::uint32_t master;
        monitor::BusMonitor *monitor; //!< null for bridges
        bool dead = false;
        bool fenced = false;
        bool reclaiming = false;
        Tick declaredAt = 0;
    };

    void onDeclaredDead(std::uint32_t master);
    void onFenced(std::uint32_t master, SuspicionKind kind);
    void onUnfenced(std::uint32_t master);
    /** Shared quarantine steps: mask, drain, broadcast, reclaim. */
    void maskAndReclaim(Record &record);
    void startReclaim(Record &record);
    void reclaimNext(Record &record,
                     std::shared_ptr<std::deque<std::uint64_t>> frames);
    void restoreFrame(Record &record, std::uint64_t frame,
                      std::shared_ptr<std::deque<std::uint64_t>> frames);
    void finishReclaim(Record &record);
    Record *find(std::uint32_t master);
    const Record *find(std::uint32_t master) const;

    EventQueue &events_;
    mem::VmeBus &bus_;
    mem::PhysMem &mem_;
    RecoveryConfig config_;
    FailureDetector detector_;

    /** Stable addresses: reclaim events capture Record pointers. */
    std::deque<Record> records_;
    backing::PageStore *backing_ = nullptr;
    Asid backingAsid_ = 0;
    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;
    std::function<void()> postReclaimHook_;
    std::function<void(std::uint32_t)> parkHook_;
    std::function<void(std::uint32_t)> resyncHook_;
    Tick lastRecoveryNs_ = 0;
    Tick lastFenceAt_ = 0;

    Counter boardsDead_;
    Counter boardsFenced_;
    Counter boardsUnfenced_;
    Counter framesReclaimed_;
    Counter sharedDropped_;
    Counter pagesLost_;
    Counter pagesRestored_;
    Counter recoveries_;
};

} // namespace vmp::recover

#endif // VMP_RECOVER_RECOVERY_HH
