/**
 * @file
 * The software side of VMP cache management: one CacheController per
 * processor board models the miss-handler and consistency code that the
 * real machine runs out of local memory.
 *
 * It implements, per Sections 2 and 3:
 *  - software cache miss handling (trap, translate, victim write-back
 *    overlapped with bookkeeping, block-copy fill, retry on abort);
 *  - the two-state (shared/private) distributed ownership protocol,
 *    including assert-ownership upgrades and the "competing against
 *    itself" resolution of virtual-address aliases;
 *  - servicing of bus-monitor interrupt words between instructions
 *    (invalidate, downgrade-with-write-back, relinquish, notification);
 *  - recovery from interrupt-FIFO overflow;
 *  - the local-memory bookkeeping: physical-frame -> cache-slot maps,
 *    frame ownership state, and a shadow of the bus monitor's action
 *    table (the hardware table is bus-side and not CPU-readable).
 *
 * All operations are asynchronous against the shared event queue; the
 * owning CPU model is blocked for the duration of each call, which is
 * exactly the paper's execution model (the CPU blocks on the cache
 * controller mid-instruction awaiting the block transfer).
 */

#ifndef VMP_PROTO_CONTROLLER_HH
#define VMP_PROTO_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "mem/block_copier.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "obs/event_tracer.hh"
#include "proto/dead_owner.hh"
#include "proto/timing.hh"
#include "sim/random.hh"
#include "proto/translator.hh"
#include "sim/event.hh"
#include "sim/stats.hh"

namespace vmp::proto
{

/** How an access() call was satisfied. */
enum class AccessOutcome : std::uint8_t
{
    Hit,           //!< satisfied by the cache at full speed
    MissCompleted, //!< one or more misses were handled in software
};

/** Per-frame ownership state kept in local memory. */
enum class FrameState : std::uint8_t
{
    Shared,
    Private,
};

/** What runs a board's interrupt-service software (setIrqService). */
enum class IrqService : std::uint8_t
{
    Off,    //!< nobody: words wait (bare rig, halted or destroyed CPU)
    Polled, //!< a running CPU calls serviceInterrupts between instructions
    Idle,   //!< the controller runs one idle-service pass per burst
};

/** The frame of an untracked slot in CacheController::slotFrames(). */
inline constexpr std::uint64_t noFrame = ~std::uint64_t{0};

/**
 * Software bookkeeping for one physical frame held in (or protected
 * by) this cache: the ownership state, and the head of the chain of
 * slots caching the frame (linked through the controller's per-slot
 * alias links), so finding a frame's copies is a walk over its
 * aliases, not a search of the cache.
 */
struct FrameInfo
{
    FrameState state = FrameState::Shared;
    /** The slot that acquired ownership, when state == Private
     *  (cache::noSlot when acquired without a cache copy). */
    cache::SlotIndex owningSlot = 0;
    /** First slot caching the frame, cache::noSlot when none does. */
    cache::SlotIndex firstSlot = cache::noSlot;
};

/**
 * Structured starvation report produced by the livelock watchdog when
 * one logical operation exceeds its retry cap (Section 3.3's retry
 * protocol is probabilistically — not deterministically — live, so
 * starvation must be *detected*, not assumed away).
 */
struct WatchdogReport
{
    CpuId cpu = 0;
    /** Which retry loop starved ("access", "write-back", ...). */
    std::string operation;
    Asid asid = 0;
    Addr vaddr = 0;
    Addr paddr = 0;
    /** Retries attempted when the cap tripped. */
    std::uint64_t attempts = 0;
    /** Tick the starving operation started at. */
    Tick started = 0;
    /** Tick the watchdog tripped at. */
    Tick now = 0;
    /**
     * True when the dead-owner oracle reports the frame's Protect
     * owner failstopped: the loop is waiting on a dead board, not
     * livelocked against live contenders. Counted separately (see
     * deadOwnerSuspected()), not as a watchdog trip.
     */
    bool deadOwnerSuspected = false;

    std::string toString() const;
};

/** The per-processor cache management software. */
class CacheController
{
  public:
    using AccessDone = std::function<void(AccessOutcome)>;
    using Done = std::function<void()>;
    /** Page-fault upcall: handle the fault, then invoke retry. */
    using FaultHandler =
        std::function<void(const TranslateRequest &, Done retry)>;
    /** Notification upcall (Section 5.4 locks, messages). */
    using NotifyHandler = std::function<void(Addr paddr)>;

    CacheController(CpuId cpu, EventQueue &events, cache::Cache &cache,
                    monitor::BusMonitor &busMonitor, mem::VmeBus &bus,
                    Translator &translator,
                    const SoftwareTiming &timing = {});
    /** Releases the interrupt line and cancels a pending idle pass. */
    ~CacheController();
    CacheController(const CacheController &) = delete;
    CacheController &operator=(const CacheController &) = delete;

    CpuId cpuId() const { return cpuId_; }
    cache::Cache &cache() { return cache_; }
    const SoftwareTiming &timing() const { return timing_; }

    void setFaultHandler(FaultHandler handler);
    void setNotifyHandler(NotifyHandler handler);

    /** Starvation upcall; see setWatchdog(). */
    using WatchdogHandler = std::function<void(const WatchdogReport &)>;

    /**
     * Configure the livelock/starvation watchdog: when any one retry
     * loop (an access miss or a write-back/notify loop) exceeds
     * @p max_retries attempts, a WatchdogReport is produced — handed
     * to @p handler if set, warned to stderr otherwise — and counted.
     * The operation keeps retrying either way; the watchdog observes,
     * it does not kill. @p max_retries 0 disables the watchdog.
     * Default: cap 1000, no handler.
     */
    void setWatchdog(std::uint64_t max_retries,
                     WatchdogHandler handler = {});

    /** Forward fault-injection hooks to this board's block copier. */
    void setFaultHooks(mem::FaultHooks *hooks);

    /**
     * Attach (or detach, with nullptr) an event tracer. The miss
     * handler records, on @p track: one Miss span per completed miss,
     * MissPhase spans forming a gapless serial partition of it (trap,
     * action-table lookup, victim writeback, block copy, consistency
     * wait), one Service span per interrupt-service burst, and the
     * block copier's Copy spans. A nested (PTE) miss's spans carry
     * obs::kNestedMissBit. Misses already in flight when the tracer
     * is attached stay untraced. A null tracer costs one untaken
     * branch per potential event; a non-null tracer only observes —
     * the simulated timeline is bit-identical either way.
     */
    void setTracer(obs::EventTracer *tracer, std::uint16_t track);

    /** Dead-owner error upcall; see proto/dead_owner.hh. */
    using DeadOwnerHandler = std::function<void(const DeadOwnerError &)>;

    /**
     * Install the recovery subsystem's dead-owner oracle (nullptr to
     * detach). With an oracle the watchdog attributes starvation on a
     * frame whose Protect owner is declared dead to the dead owner
     * instead of counting a livelock trip.
     */
    void setDeadOwnerOracle(const DeadOwnerOracle *oracle)
    {
        deadOracle_ = oracle;
    }

    /**
     * Install a handler for DeadOwnerError reports (abandoned timed
     * waits). Without a handler the error is warned to stderr; it is
     * counted and retained either way.
     */
    void setDeadOwnerHandler(DeadOwnerHandler handler)
    {
        deadOwnerHandler_ = std::move(handler);
    }

    // --- failstop / hot-rejoin (driven by core::VmpSystem) ---

    /**
     * Failstop this board's management software: all local bookkeeping
     * (frame table, slot map, action-table shadow) and cache contents
     * vanish, exactly as if the board lost power. The bus-side monitor
     * hardware is *not* touched — its stale table keeps aborting until
     * the recovery coordinator masks it (or a rejoin clears it), which
     * is precisely the wedge the recovery subsystem exists to break.
     */
    void failstop();

    /** Restart the board's software cold after a failstop. */
    void rejoin();

    /** True between failstop() and rejoin(). */
    bool dead() const { return dead_; }

    // --- partial-failure seams (driven by the fault schedule) ---

    /**
     * Wedge / unwedge the interrupt-service loop: while wedged,
     * serviceInterrupts() returns without draining, so words rot in
     * the FIFO while the bus-side monitor hardware keeps aborting
     * against stale Protect entries. Unlike failstop the board is NOT
     * silent — dead() stays false, bookkeeping and cache contents are
     * retained — which is exactly why a binary liveness probe reports
     * a wedged board healthy and a progress-epoch witness is needed.
     */
    void setWedged(bool wedged) { wedged_ = wedged; }
    bool wedged() const { return wedged_; }

    /**
     * Inflate interrupt-service latency by an integer factor
     * (fail-slow injection). Factor 1 — the default — multiplies the
     * unscaled charge by one and is bit-identical to it.
     */
    void setServiceSlowdown(std::uint64_t factor);
    std::uint64_t serviceSlowdown() const { return slowFactor_; }

    /**
     * Service-loop progress epoch: advances whenever the loop
     * demonstrably makes progress (a word serviced, an overflow sweep
     * run, a drain pass completed). The health witness compares
     * epochs across observations — a wedged loop's epoch freezes
     * while its FIFO backlog persists.
     */
    std::uint64_t serviceEpoch() const { return serviceEpoch_; }

    /** Retry delay with desynchronizing jitter (public so the
     *  determinism regression tests can sample the sequence). */
    Tick retryDelay();

    /**
     * Present one memory reference. On a hit @p done runs immediately
     * (same tick); on a miss it runs once the software handler, block
     * transfers and any retries complete.
     */
    void access(Asid asid, Addr vaddr, bool write, bool supervisor,
                AccessDone done);

    /**
     * The hardware half of access(): present the reference to the
     * cache (a tag match; LRU and hit counters update on a hit). A hit
     * needs no software, so the CPU model may retire it without an
     * event or callback.
     */
    cache::AccessResult
    lookup(Asid asid, Addr vaddr, bool write, bool supervisor)
    {
        return cache_.access(asid, vaddr, write, supervisor);
    }

    /**
     * The software half of access(): trap into the miss handler for
     * @p res, a non-hit result lookup() just returned for the same
     * reference. @p done runs once the miss is resolved.
     */
    void miss(const cache::AccessResult &res, Asid asid, Addr vaddr,
              bool write, bool supervisor, AccessDone done);

    /** Data-plane reference: read a 32-bit word through the cache. */
    void readWord(Asid asid, Addr vaddr, bool supervisor,
                  std::function<void(std::uint32_t)> done);
    /** Data-plane reference: write a 32-bit word through the cache. */
    void writeWord(Asid asid, Addr vaddr, std::uint32_t value,
                   bool supervisor, Done done);

    /**
     * Service all pending bus-monitor interrupt words (called by the
     * CPU model between instructions). Runs overflow recovery first if
     * the FIFO dropped a word. A call made while a drain is live joins
     * it: the drain emits one Service span and one stall charge, then
     * runs every joined @p done in call order.
     */
    void serviceInterrupts(Done done);

    /**
     * Choose who takes this board's interrupts (default Off). In Idle
     * a raised line schedules one "idle-service" pass at +1 per burst,
     * repeated while words stay pending; switching to Idle with words
     * pending starts one. A pass finding the board Off does nothing.
     */
    void setIrqService(IrqService mode);
    IrqService irqService() const { return irqService_; }

    /** True if any interrupt word (or the overflow flag) is pending.
     *  Inline: a running CPU asks before every reference. */
    bool interruptPending() const
    {
        return !monitor_.fifo().empty() || monitor_.fifo().overflowed();
    }

    // --- operations used by the VM system and synchronization code ---

    /**
     * Issue assert-ownership on the frame at @p paddr (used by the VM
     * system for translation consistency and DMA, Section 3.3/3.4).
     * Retries until it succeeds; the caller need not hold a copy.
     */
    void assertOwnership(Addr paddr, Done done);

    /** Release a frame protected via assertOwnership (entry -> 00). */
    void releaseProtection(Addr paddr, Done done);

    /** Send a notification transaction for @p paddr. */
    void notifyFrame(Addr paddr, Done done);

    /** Set this monitor's action-table entry via the bus. */
    void writeActionTable(Addr paddr, mem::ActionEntry entry, Done done);

    /** Uncached (non-consistency) global-memory word operations. */
    void uncachedRead(Addr paddr, std::function<void(std::uint32_t)> d);
    void uncachedWrite(Addr paddr, std::uint32_t value, Done done);
    /** Uncached atomic test-and-set; yields the previous value. */
    void uncachedTas(Addr paddr, std::function<void(std::uint32_t)> d);

    /**
     * Drop every slot caching the frame at @p paddr, without write-back
     * (used when another master has asserted ownership away from us —
     * normally driven by interrupt service, public for the VM tests).
     */
    void invalidateFrame(Addr paddr);

    /**
     * Flush our own copies of the frame at @p paddr: write the dirty
     * data back (retaining ownership — the entry stays Protect) and
     * invalidate the local slots. Requires ownership to have been
     * asserted; used by the VM system's Section 3.4 sequences.
     */
    void flushFrame(Addr paddr, Done done);

    // --- introspection for tests and the coherence checker ---
    /** Bookkeeping entry for a frame, or nullptr. */
    const FrameInfo *frameInfo(Addr paddr) const;
    /** Software's belief about this monitor's action-table entry. */
    mem::ActionEntry shadowEntry(Addr paddr) const;
    /** Full frame -> ownership-state bookkeeping map. */
    const std::unordered_map<std::uint64_t, FrameInfo> &
    frameTable() const
    {
        return frames_;
    }
    /** Frame cached in each slot, indexed by slot; noFrame when the
     *  slot is untracked. */
    const std::vector<std::uint64_t> &
    slotFrames() const
    {
        return slotFrame_;
    }
    /** Full software shadow of the monitor's action table. */
    const std::unordered_map<std::uint64_t, mem::ActionEntry> &
    shadowTable() const
    {
        return shadow_;
    }
    const cache::Cache &cache() const { return cache_; }
    const monitor::BusMonitor &busMonitor() const { return monitor_; }

    // --- statistics ---
    const Counter &misses() const { return missCount_; }
    const Counter &ownershipMisses() const { return ownershipCount_; }
    const Counter &hintedPrivateFills() const
    {
        return hintedPrivateFills_;
    }
    const Counter &retries() const { return retryCount_; }
    const Counter &wordsServiced() const { return serviceCount_; }
    const Counter &spuriousWords() const { return spuriousCount_; }
    const Counter &writeBacks() const { return writeBackCount_; }
    const Counter &protocolViolations() const { return violationCount_; }
    const Counter &overflowRecoveries() const { return recoveryCount_; }
    Tick missStallTicks() const { return missStall_; }
    Tick serviceStallTicks() const { return serviceStall_; }
    /**
     * Cumulative service-software CPU time: the per-word software
     * charge, accrued as each word is taken up. This is what the
     * fail-slow health witness reads, and it differs from
     * serviceStallTicks() in two ways that both matter there:
     * it accrues mid-drain (a fail-slow board under steady traffic
     * may never empty its FIFO, and serviceStall_ only commits when
     * a drain finishes), and it excludes bus-wait time (a healthy
     * survivor stalled retrying against a sick *peer* must not be
     * billed as slow itself).
     */
    Tick serviceCpuTicks() const { return serviceCpuNs_; }
    /** Times any retry loop exceeded the watchdog cap. */
    const Counter &watchdogTrips() const { return watchdogTrips_; }
    /** Watchdog cap hits attributed to a declared-dead owner. */
    const Counter &deadOwnerSuspected() const
    {
        return deadOwnerSuspected_;
    }
    /** Timed waits abandoned with a DeadOwnerError. */
    const Counter &deadOwnerErrors() const { return deadOwnerErrors_; }
    /** Most recent dead-owner error, if any wait was ever abandoned. */
    const std::optional<DeadOwnerError> &lastDeadOwnerError() const
    {
        return lastDeadOwnerError_;
    }
    /** Most recent starvation report, if the watchdog ever tripped. */
    const std::optional<WatchdogReport> &lastWatchdogReport() const
    {
        return lastReport_;
    }
    /** Retries needed per completed miss (bucket = retry count). */
    const Histogram &retriesPerMiss() const { return retryHistogram_; }
    void registerStats(StatGroup &group) const;

  private:
    /** Page contents captured for a write-back. */
    using PageBuffer = std::shared_ptr<const std::vector<std::uint8_t>>;

    /**
     * One in-flight miss: the software handler's state for one trapped
     * reference, from trap to restart. A page-table read of the VM walk
     * misses through this same cache inside the miss that needed the
     * translation, so the records form a LIFO stack (misses_) and every
     * miss-path step runs the innermost one (DESIGN.md, "Miss records").
     */
    struct MissRecord
    {
        TranslateRequest req;
        Tick started = 0;
        AccessDone done;
        /** Access retries this miss has consumed. */
        std::uint64_t retries = 0;
        /** Handler phase now running, and the tick it began. */
        obs::MissPhase phase = obs::MissPhase::Trap;
        Tick phaseStartedAt = 0;
        /** Trace miss kind: 0 full, 1 ownership, 2 protection. */
        std::uint8_t kind = 0;
        /** The victim was dirty (observed by the tracer only). */
        bool dirty = false;
        /** A tracer was attached at the trap: emit this miss's spans. */
        bool traced = false;
    };

    /** Progress of one bus retry loop, for the watchdog and the
     *  dead-owner timed wait. */
    struct RetryLoop
    {
        std::uint64_t tries = 0;
        Tick started = 0;
    };

    std::uint64_t frameOf(Addr paddr) const;
    Addr frameBase(Addr paddr) const;
    std::uint32_t pageBytes() const;

    /** Schedule @p fn after @p delay of software execution. */
    void afterSoftware(Tick delay, Done fn);

    // --- the miss handler; each step runs the innermost miss record ---

    /** Route the innermost miss by the cache's non-hit verdict. */
    void dispatchMiss(const cache::AccessResult &res);
    /**
     * Trap entry, then translation. A missing or insufficient mapping
     * upcalls the fault handler and retries the access; otherwise
     * @p next continues with the translation.
     */
    void trapAndTranslate(TranslateDone next);
    /** Full miss: retire the victim, then block-copy the page in. */
    void missWithTranslation(const TranslateResult &result);
    void issueFill(const TranslateResult &result, cache::SlotIndex victim);
    /** Ownership (write-to-shared) miss: assert ownership on the bus. */
    void upgradeOwnership(cache::SlotIndex slot, std::uint64_t frame,
                          const TranslateResult &result);
    /** Protection miss: refresh the slot's flags and retry. */
    void refreshProtection(cache::SlotIndex slot,
                           const TranslateResult &result);
    /** Abort recovery: service own words, re-trap, redo the access. */
    void retryAccess();
    /** Complete the innermost miss: charge the stall, sample its retry
     *  count, pop its record and invoke its continuation. */
    void finishMiss();

    /** Retire the victim slot: write back / release as needed. The
     *  continuation receives no arguments; bookkeeping is updated. */
    void retireVictim(cache::SlotIndex victim, Done done);

    /** Remove @p slot from its frame's bookkeeping (if tracked);
     *  the frame's entry goes once its last slot does. */
    void forgetSlot(cache::SlotIndex slot);
    /** A copy of @p slot's page for a write-back (empty without
     *  CacheConfig::storeData). */
    PageBuffer copyPage(cache::SlotIndex slot) const;
    /**
     * Invalidate every slot caching @p frame except @p keep. Yields the
     * contents of a modified one, or null when all were clean.
     */
    PageBuffer dropFrameSlots(std::uint64_t frame,
                              cache::SlotIndex keep = cache::noSlot);

    /**
     * Write @p data back to @p frame, leaving its table entry @p after;
     * aborts retry until the write-back succeeds. A dead-owner timeout
     * abandons the data: the entry is then set to @p after by an
     * explicit table write, unless @p after is Protect (ownership is
     * kept).
     */
    void writeBack(std::uint64_t frame, PageBuffer data,
                   mem::ActionEntry after, Done done);
    void writeBackAttempt(std::uint64_t frame, PageBuffer data,
                          mem::ActionEntry after, Done done,
                          RetryLoop loop);
    void assertOwnershipAttempt(Addr base, Done done, RetryLoop loop);
    void notifyAttempt(Addr base, Done done, RetryLoop loop);
    /**
     * Count one aborted attempt of @p loop and run the watchdog. True
     * when the timed wait has expired and the loop must be abandoned.
     */
    bool retryAbandoned(const char *operation, Addr base,
                        RetryLoop &loop);

    /** Set the entry of @p base to 00 unless the shadow says it is. */
    void releaseEntry(Addr base, Done done);
    /** releaseEntry() each of @p frames in turn, last first. */
    void releaseEntries(std::shared_ptr<std::vector<std::uint64_t>> frames,
                        Done done);

    /** Interrupt line: schedule an idle pass if Idle and none is live. */
    void pokeIdle();
    /** One step of the live drain; an empty FIFO closes it. */
    void drainInterrupts();
    /** Service one interrupt word, then continue with @p next. */
    void serviceWord(const monitor::InterruptWord &word, Done next);
    void relinquishFrame(std::uint64_t frame, Done next);
    void downgradeFrame(std::uint64_t frame, Done next);
    void recoverFromOverflow(Done done);

    // --- phases and spans of the innermost miss ---

    /** Enter @p phase; a traced miss emits the span of the phase
     *  ending now. */
    void tracePhase(obs::MissPhase phase);
    /** Emit the current phase's span ending now, if non-empty. */
    void traceClosePhase(const MissRecord &m);
    /** Close the miss: final phase span + the Miss span. */
    void traceMissEnd(const MissRecord &m);
    /** Miss/MissPhase aux bit of the innermost miss's spans. */
    std::uint8_t nestedAux() const
    {
        return misses_.size() > 1 ? obs::kNestedMissBit : 0;
    }

    /**
     * Watchdog check for one retry loop: trips (once per starving
     * operation, at attempts == cap + 1) when @p attempts exceeds the
     * configured cap.
     */
    void watchdogCheck(const char *operation, Asid asid, Addr vaddr,
                       Addr paddr, std::uint64_t attempts, Tick started);

    /**
     * Timed-wait check for one retry loop: true when the dead-owner
     * deadline has expired, in which case a DeadOwnerError has been
     * raised and the loop must abandon the operation.
     */
    bool deadOwnerCheck(const char *operation, Addr vaddr, Addr paddr,
                        std::uint64_t attempts, Tick started);

    CpuId cpuId_;
    EventQueue &events_;
    cache::Cache &cache_;
    monitor::BusMonitor &monitor_;
    mem::VmeBus &bus_;
    mem::BlockCopier copier_;
    Translator &translator_;
    SoftwareTiming timing_;
    Rng rng_;
    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;
    /** In-flight misses, innermost last (see MissRecord). */
    std::vector<MissRecord> misses_;
    FaultHandler faultHandler_;
    NotifyHandler notifyHandler_;

    /** frame -> local bookkeeping. */
    std::unordered_map<std::uint64_t, FrameInfo> frames_;
    /** slot -> frame currently cached there, or noFrame (parallel to
     *  the cache). */
    std::vector<std::uint64_t> slotFrame_;
    /** Next slot caching the same frame, cache::noSlot at the chain's
     *  end; meaningful only for tracked slots (see FrameInfo::firstSlot). */
    std::vector<cache::SlotIndex> aliasNext_;
    /** Software's shadow of the monitor's action table. */
    std::unordered_map<std::uint64_t, mem::ActionEntry> shadow_;

    Counter missCount_;
    Counter ownershipCount_;
    Counter hintedPrivateFills_;
    Counter retryCount_;
    Counter serviceCount_;
    Counter spuriousCount_;
    Counter writeBackCount_;
    Counter violationCount_;
    Counter recoveryCount_;
    Tick missStall_ = 0;
    Tick serviceStall_ = 0;
    /** Service-software CPU time (see serviceCpuTicks). */
    Tick serviceCpuNs_ = 0;

    // --- interrupt service (DESIGN.md, "One service record") ---
    /** The live drain; later serviceInterrupts() calls join it. */
    struct ServiceRecord
    {
        Tick started = 0;
        std::uint64_t wordsBefore = 0;
        /** Continuations in call order; empty when no drain is live. */
        std::vector<Done> waiters;
    };
    ServiceRecord service_;
    IrqService irqService_ = IrqService::Off;
    /** An idle pass is scheduled or its drain is running. */
    bool idlePassLive_ = false;
    /** The last idle pass scheduled (the destructor cancels it). */
    EventId idlePass_;

    // --- livelock watchdog ---
    /** Retry cap per logical operation (0 = watchdog disabled). */
    std::uint64_t watchdogCap_ = 1000;
    WatchdogHandler watchdogHandler_;
    Counter watchdogTrips_;
    std::optional<WatchdogReport> lastReport_;

    // --- dead-owner timed waits / failstop state ---
    const DeadOwnerOracle *deadOracle_ = nullptr;
    DeadOwnerHandler deadOwnerHandler_;
    Counter deadOwnerSuspected_;
    Counter deadOwnerErrors_;
    std::optional<DeadOwnerError> lastDeadOwnerError_;
    bool dead_ = false;
    /** Service loop wedged (partial failure; distinct from dead_). */
    bool wedged_ = false;
    /** Interrupt-service latency multiplier (fail-slow; 1 = healthy). */
    std::uint64_t slowFactor_ = 1;
    /** Service-loop progress epoch (see serviceEpoch()). */
    std::uint64_t serviceEpoch_ = 0;
    /** Retries per completed miss; bucket n = n retries, last bucket
     *  collects everything >= 32. */
    Histogram retryHistogram_{33, 1.0};
};

} // namespace vmp::proto

#endif // VMP_PROTO_CONTROLLER_HH
