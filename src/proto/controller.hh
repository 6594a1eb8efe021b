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
 *  - the per-word policy of interrupt service between instructions
 *    (invalidate, downgrade-with-write-back, relinquish, notification)
 *    and the frames an interrupt-FIFO overflow sweep drops;
 *  - the local-memory bookkeeping: physical-frame -> cache-slot maps
 *    and frame ownership state.
 *
 * What every master on the bus runs alike — the retry delay, the
 * action-table shadow and its writes, the write-back retry loop with
 * its watchdog and dead-owner wait, the interrupt drain and overflow
 * recovery, and the liveness state — is the ProtocolClient base class
 * (proto/client.hh); an inter-bus board derives from the same engine.
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
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "obs/event_tracer.hh"
#include "proto/client.hh"
#include "proto/timing.hh"
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

/** The per-processor cache management software. */
class CacheController : public ProtocolClient
{
  public:
    /** What runs once a miss is resolved (always MissCompleted). */
    using AccessDone = Thunk;
    /** A cold caller's access() continuation. */
    using AccessCallback = std::function<void(AccessOutcome)>;
    /** Page-fault upcall: handle the fault, then invoke retry. */
    using FaultHandler =
        std::function<void(const TranslateRequest &, Done retry)>;
    /** Notification upcall (Section 5.4 locks, messages). */
    using NotifyHandler = std::function<void(Addr paddr)>;

    CacheController(CpuId cpu, EventQueue &events, cache::Cache &cache,
                    monitor::BusMonitor &busMonitor, mem::VmeBus &bus,
                    Translator &translator,
                    Tick dead_owner_timeout_ns = kDeadOwnerTimeoutNs);
    /** Releases the interrupt line and cancels a pending idle pass. */
    ~CacheController();
    CacheController(const CacheController &) = delete;
    CacheController &operator=(const CacheController &) = delete;

    cache::Cache &cache() { return cache_; }

    void setFaultHandler(FaultHandler handler);
    void setNotifyHandler(NotifyHandler handler);

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
    void setTracer(obs::EventTracer *tracer, std::uint16_t track) override;

    // --- failstop / hot-rejoin (driven by core::Machine) ---

    /**
     * Failstop this board's management software: all local bookkeeping
     * (frame table, slot map, action-table shadow) and cache contents
     * vanish, exactly as if the board lost power. The bus-side monitor
     * hardware is *not* touched — its stale table keeps aborting until
     * the recovery coordinator masks it (or a rejoin clears it), which
     * is precisely the wedge the recovery subsystem exists to break.
     */
    void failstop() override;

    /** Restart the board's software cold after a failstop. */
    void rejoin() override;

    /**
     * Present one memory reference. On a hit @p done runs immediately
     * (same tick); on a miss it runs once the software handler, block
     * transfers and any retries complete.
     */
    void access(Asid asid, Addr vaddr, bool write, bool supervisor,
                AccessCallback done);

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

    /**
     * The translator's report for the innermost miss: continue it by
     * its verdict, or upcall the fault handler and retry the access.
     */
    void translated(const TranslateResult &result);

    /** The innermost miss's fill or upgrade left the bus; any other
     *  token is the engine's. */
    void busDone(std::uint64_t token, const mem::TxResult &res) override;

    /** Data-plane reference: read a 32-bit word through the cache. */
    void readWord(Asid asid, Addr vaddr, bool supervisor,
                  std::function<void(std::uint32_t)> done);
    /** Data-plane reference: write a 32-bit word through the cache. */
    void writeWord(Asid asid, Addr vaddr, std::uint32_t value,
                   bool supervisor, Done done);

    /**
     * Choose who takes this board's interrupts (default Off). In Idle
     * a raised line schedules one "idle-service" pass at +1 per burst,
     * repeated while words stay pending; switching to Idle with words
     * pending starts one. A pass finding the board Off does nothing.
     */
    void setIrqService(IrqService mode);
    IrqService irqService() const { return irqService_; }
    /** Queued words, plus one for a pending overflow sweep. */
    std::uint64_t pendingWords() const override;
    bool idle() const override { return !interruptPending(); }

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

    /** Uncached (non-consistency) global-memory word operations. */
    using WordDone = std::function<void(std::uint32_t)>;
    void
    uncachedRead(Addr paddr, WordDone d)
    {
        uncachedWord(paddr, mem::TxType::DmaRead, 0, std::move(d));
    }
    void
    uncachedWrite(Addr paddr, std::uint32_t value, Done done)
    {
        uncachedWord(paddr, mem::TxType::DmaWrite, value,
                     [done = std::move(done)](std::uint32_t) { done(); });
    }
    /** Uncached atomic test-and-set; yields the previous value. */
    void
    uncachedTas(Addr paddr, WordDone d)
    {
        uncachedWord(paddr, mem::TxType::DmaWrite, 1, std::move(d), true);
    }

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
    const cache::Cache &cache() const { return cache_; }

    // --- statistics ---
    const Counter &misses() const { return missCount_; }
    const Counter &ownershipMisses() const { return ownershipCount_; }
    const Counter &hintedPrivateFills() const
    {
        return hintedPrivateFills_;
    }
    const Counter &protocolViolations() const { return violationCount_; }
    Tick missStallTicks() const { return missStall_; }
    /** Retries needed per completed miss (bucket = retry count). */
    const Histogram &retriesPerMiss() const { return retryHistogram_; }
    void registerStats(StatGroup &group) const;

  protected:
    void serviceWord(const monitor::InterruptWord &word,
                     Thunk next) override;
    void recoverFromOverflow(Thunk done) override;
    /** Our assert-ownership completed: we own @p frame, no slot yet. */
    void acquired(std::uint64_t frame) override;

  private:
    /** busDone() tokens of the innermost miss's transfers. */
    static constexpr std::uint64_t kFillToken = kOwnTokens;
    static constexpr std::uint64_t kUpgradeToken = kOwnTokens + 1;

    /**
     * One in-flight miss: the software handler's state for one trapped
     * reference, from trap to restart. Each handler step is a member
     * function that reads and advances the record, so what runs next is
     * the record's phase, not a captured closure. A page-table read of
     * the VM walk misses through this same cache inside the miss that
     * needed the translation, so the records form a LIFO stack (misses_)
     * and every miss-path step runs the innermost one (DESIGN.md, "Miss
     * records").
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
        /** Branches of the victim retirement still to finish: the
         *  write-back or table write, and the overlapped bookkeeping. */
        std::uint8_t joins = 0;
        /** The cache's verdict on the current attempt. */
        cache::MissKind verdict = cache::MissKind::None;
        /** The victim of a full miss; the slot of an ownership or
         *  protection miss. */
        cache::SlotIndex slot = 0;
        /** An ownership miss's frame, as the slot held it. */
        std::uint64_t frame = 0;
        /** The translation, once translated() reports it. */
        TranslateResult result;
    };

    // --- the miss handler; each step runs the innermost miss record ---

    /** Route the innermost miss by the cache's non-hit verdict. */
    void dispatchMiss(const cache::AccessResult &res);
    /** After the trap: translate() reports to translated(). */
    void translateMiss();
    /**
     * Full miss: retire the victim (write back or release it as
     * needed, each branch ending in victimJoined()), then block-copy
     * the page in and fill the slot.
     */
    void missWithTranslation();
    void victimJoined();
    void issueFill();
    void filled();
    /** Ownership (write-to-shared) miss: assert ownership on the bus. */
    void upgradeOwnership();
    void assertMissOwnership();
    void upgraded();
    /** Protection miss: refresh the slot's flags and retry. */
    void refreshProtection();
    /** Abort recovery: service own words, re-trap, redo the access. */
    void retryAccess();
    void retryAfterService();
    void reaccess();
    /** Complete the innermost miss: charge the stall, sample its retry
     *  count, pop its record and invoke its continuation. */
    void finishMiss();


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
    /** One uncached word transaction writing @p value (and, for @p rmw,
     *  reading the old value); @p done gets the word read. */
    void uncachedWord(Addr paddr, mem::TxType type, std::uint32_t value,
                      WordDone done, bool rmw = false);

    // --- interrupt service ---

    /** Interrupt line: schedule an idle pass if Idle and none is live. */
    void pokeIdle();
    void relinquishFrame(std::uint64_t frame, Thunk next);
    void downgradeFrame(std::uint64_t frame, Thunk next);

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

    cache::Cache &cache_;
    Translator &translator_;
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

    Counter missCount_;
    Counter ownershipCount_;
    Counter hintedPrivateFills_;
    Counter violationCount_;
    Tick missStall_ = 0;

    IrqService irqService_ = IrqService::Off;
    /** An idle pass is scheduled or its drain is running. */
    bool idlePassLive_ = false;
    /** The last idle pass scheduled (the destructor cancels it). */
    EventId idlePass_;
    /** Retries per completed miss; bucket n = n retries, last bucket
     *  collects everything >= 32. */
    Histogram retryHistogram_{33, 1.0};
};

} // namespace vmp::proto

#endif // VMP_PROTO_CONTROLLER_HH
