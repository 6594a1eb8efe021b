/**
 * @file
 * The inter-bus cache board of the two-level VMP hierarchy (the
 * VMP-MC direction sketched in the paper's conclusion): one board per
 * cluster bridges that cluster's local VMEbus onto the global bus.
 *
 * Towards its local bus the board behaves like a very large cache that
 * participates in the cluster's two-state ownership protocol: a full
 * *cluster image* of physical memory backs every local block transfer,
 * and a cluster-level action table decides, for every local
 * consistency transaction, whether the cluster may satisfy it
 * (Ignore = absent, Shared = cluster holds a shared copy, Protect =
 * cluster owns the frame). Local transactions the cluster cannot
 * satisfy are aborted exactly like the flat protocol aborts a CPU —
 * the requesting processor retries while the board's software fetches
 * or upgrades the frame over the global bus.
 *
 * Towards the global bus the board is an ordinary protocol client: it
 * reuses the stock bus monitor (action table + interrupt FIFO) and
 * block copier, so the global level *is* the paper's flat two-state
 * protocol with inter-bus boards in place of processors. Two-state
 * legality therefore holds per level, with the board acting as the
 * single owner proxy for its whole cluster.
 *
 * Like everything else in VMP, the board's consistency engine is
 * software: a single service loop with an instruction-time budget
 * drains the two interrupt FIFOs (global first — releasing frames
 * other clusters wait for breaks any cross-cluster wait cycle),
 * recalls local copies before giving up frames, and recovers
 * conservatively from FIFO overflow.
 */

#ifndef VMP_HIER_INTER_BUS_BOARD_HH
#define VMP_HIER_INTER_BUS_BOARD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/block_copier.hh"
#include "mem/bus_types.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/action_table.hh"
#include "monitor/bus_monitor.hh"
#include "monitor/interrupt_fifo.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::hier
{

/** Instruction-time budget of the board's service software. */
struct IbcTiming
{
    /** Dispatch + bookkeeping for one interrupt word. */
    Tick serviceNs = 3000;
    /** Install a fetched page in the image and update tables. */
    Tick installNs = 2000;
    /** Base retry back-off after an aborted global transaction. */
    Tick retryNs = 1000;
    /** Desynchronizing jitter added to every retry. */
    Tick retryJitterNs = 12000;
};

/**
 * One cluster's inter-bus cache board. Implements mem::BusWatcher on
 * the *local* bus directly (its pass/abort rule differs from a
 * processor monitor's: a cluster-level Shared entry must still block
 * local ownership upgrades until the global upgrade completes) and
 * owns a stock monitor::BusMonitor on the *global* bus.
 */
class InterBusBoard : public mem::BusWatcher
{
  public:
    using Done = std::function<void()>;

    /**
     * @param cluster_index this cluster's master id on the global bus
     * @param local_master_id the board's master id on the local bus
     *        (must not collide with the cluster's CPU ids)
     * @param image the cluster image (local bus memory); same size and
     *        page geometry as main memory
     */
    InterBusBoard(std::uint32_t cluster_index,
                  std::uint32_t local_master_id, EventQueue &events,
                  mem::VmeBus &local_bus, mem::VmeBus &global_bus,
                  mem::PhysMem &image, const IbcTiming &timing = {},
                  std::size_t fifo_capacity = 128);

    std::uint32_t clusterIndex() const { return globalId_; }
    std::uint32_t localMasterId() const { return localId_; }

    // --- BusWatcher interface (local bus) ---
    mem::WatchVerdict observe(const mem::BusTransaction &tx) override;
    void sideEffectUpdate(const mem::BusTransaction &tx) override;

    // --- introspection for tests ---
    /** Cluster-level state of the frame at @p paddr: Ignore = absent,
     *  Shared = shared copy, Protect = cluster owns the frame. */
    mem::ActionEntry clusterState(Addr paddr) const;
    /** True if the image holds data newer than main memory. */
    bool isDirty(Addr paddr) const;
    /** Software's shadow of the global monitor's action-table entry. */
    mem::ActionEntry globalShadowEntry(Addr paddr) const;
    monitor::BusMonitor &globalMonitor() { return globalMonitor_; }
    const monitor::BusMonitor &globalMonitor() const
    {
        return globalMonitor_;
    }
    /** True when no service work is pending or in flight. */
    bool idle() const;

    /**
     * Failstop the board's *software*: the service loop stops (at the
     * next software step — bus transactions already in flight complete,
     * they cannot be recalled) and no further global fetches, upgrades
     * or recalls happen. The board's table *hardware* keeps driving
     * both buses: local requests the cluster cannot satisfy keep
     * aborting with nobody left to service them, and the global
     * monitor's stale entries keep aborting other clusters — the
     * hazards the recovery subsystem clears. Inter-bus boards do not
     * hot-rejoin in this model.
     */
    void failstop();
    /** True once failstopped. */
    bool dead() const { return dead_; }

    /**
     * Wedge / unwedge the board's service loop (partial-failure
     * injection): while wedged, kick()/pump() refuse to start work, so
     * aborted local requests and global consistency words pile up
     * undrained while the table hardware keeps aborting on both buses.
     * dead() stays false — a binary liveness probe sees a healthy
     * board. Unwedging kicks the loop so the backlog drains.
     */
    void setWedged(bool wedged)
    {
        wedged_ = wedged;
        if (!wedged_)
            kick();
    }
    /** True while the service loop is wedged. */
    bool wedged() const { return wedged_; }

    /**
     * Service-loop progress epoch: advances once per work item the
     * pump takes (overflow recovery, global word, local word). The
     * cluster health witness compares epochs across observations.
     */
    std::uint64_t serviceEpoch() const { return serviceEpoch_; }

    /** Words currently queued for the service loop (both FIFOs). */
    std::size_t pendingWords() const
    {
        return localFifo_.size() + globalMonitor_.fifo().size();
    }

    /**
     * Register this board with a cluster-level memory-budget client:
     * @p on_fault is called once per successful global fetch/upgrade
     * (pressure input) and @p on_use with +1/-1 as the cluster's
     * global-shadow footprint grows/shrinks (occupancy input). Null
     * hooks (the default) cost one untaken branch each.
     */
    void setBudgetClient(std::function<void()> on_fault,
                         std::function<void(std::int32_t)> on_use)
    {
        budgetFault_ = std::move(on_fault);
        budgetUse_ = std::move(on_use);
    }

    /**
     * Arm fault injection on the board's soft spots: the local-side
     * request FIFO, the global-side monitor (FIFO + interrupt
     * delivery) and the global block copier. Null disarms.
     */
    void setFaultHooks(mem::FaultHooks *hooks)
    {
        localFifo_.setFaultHooks(hooks);
        globalMonitor_.setFaultHooks(hooks, &events_);
        globalCopier_.setFaultHooks(hooks);
    }

    /**
     * Attach (or detach, with nullptr) an event tracer: global
     * fetches/upgrades record IbcFetch spans, cluster recalls and
     * global write-backs record instants, and the local request FIFO,
     * global monitor and global copier record their own events — all
     * on this board's one @p track. Observation only.
     */
    void
    setTracer(obs::EventTracer *tracer, std::uint16_t track)
    {
        tracer_ = tracer;
        traceTrack_ = track;
        localFifo_.setTracer(tracer, track, &events_);
        globalMonitor_.setTracer(tracer, track, &events_);
        globalCopier_.setTracer(tracer, track);
    }

    // --- statistics ---
    const Counter &sharedFetches() const { return sharedFetches_; }
    const Counter &exclusiveFetches() const { return exclusiveFetches_; }
    /** Total global page fetches (shared + exclusive). */
    std::uint64_t globalFetches() const
    {
        return sharedFetches_.value() + exclusiveFetches_.value();
    }
    const Counter &upgrades() const { return upgrades_; }
    const Counter &downgrades() const { return downgrades_; }
    const Counter &invalidates() const { return invalidates_; }
    const Counter &recalls() const { return recalls_; }
    const Counter &globalWriteBacks() const { return globalWriteBacks_; }
    const Counter &retries() const { return retries_; }
    const Counter &spuriousWords() const { return spurious_; }
    const Counter &wordsLocal() const { return wordsLocal_; }
    const Counter &wordsGlobal() const { return wordsGlobal_; }
    const Counter &localAborts() const { return localAborts_; }
    const Counter &protocolViolations() const { return violations_; }
    const Counter &overflowRecoveries() const { return recoveries_; }
    void registerStats(StatGroup &group) const;

  private:
    std::uint64_t frameOf(Addr paddr) const;
    Addr frameBase(Addr paddr) const;

    /** Schedule a service pass (no-op if one is running/scheduled). */
    void kick();
    /** Take the next work item, priority: overflow, global, local. */
    void pump();
    void finishWork();
    void afterSoftware(Tick delay, Done fn);
    Tick retryDelay();

    void serviceLocalWord(monitor::InterruptWord word, Done done);
    /** State-dependent dispatch of a local fetch/upgrade request;
     *  also the retry entry point (cluster state may have changed). */
    void dispatchLocalWord(monitor::InterruptWord word, Done done);
    void fetchFrame(monitor::InterruptWord word, bool exclusive,
                    Done done);
    void upgradeFrame(monitor::InterruptWord word, Done done);

    void serviceGlobalWord(monitor::InterruptWord word, Done done);
    /** Service every queued global word, then @p done (deadlock
     *  avoidance before retrying an aborted global transaction). */
    void drainGlobalWords(Done done);
    void downgradeCluster(Addr base, Done done);
    void invalidateCluster(Addr base, Done done);
    /** Clear a stale global action-table entry, if any. */
    void clearGlobalEntryIfStale(Addr base, Done done);

    /** Force every local cache to give up the frame (local
     *  assert-ownership, retried until unaborted). */
    void recallLocal(Addr base, Done done);
    /** One recall attempt; an abort re-enters it after a retry delay. */
    void recallAttempt(Addr base, Done done);
    /** Write the image copy of @p base back to main memory; the global
     *  entry becomes @p after. Retries on abort. */
    void writeBackGlobal(Addr base, mem::ActionEntry after, Done done);
    /** Set this board's global action-table entry via the bus. */
    void setGlobalEntry(Addr base, mem::ActionEntry entry, Done done);

    void recoverGlobalOverflow(Done done);
    void dropSharedFrames(
        std::shared_ptr<std::vector<std::uint64_t>> frames,
        std::size_t index, Done done);

    /** Record an instant event (no-op while tracer_ is null). */
    void traceInstant(obs::EventKind kind, Addr addr);
    /** Record an IbcFetch span started at @p started. */
    void traceFetch(Tick started, Addr addr, bool exclusive,
                    bool upgrade);

    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;

    std::uint32_t globalId_;
    std::uint32_t localId_;
    EventQueue &events_;
    mem::VmeBus &localBus_;
    mem::VmeBus &globalBus_;
    mem::PhysMem &image_;
    IbcTiming timing_;
    std::uint32_t pageBytes_;

    /** Cluster-level state table (local side). */
    monitor::ActionTable localTable_;
    /** Aborted local requests awaiting a global fetch/upgrade. */
    monitor::InterruptFifo localFifo_;
    /** Stock monitor watching the global bus for this board. */
    monitor::BusMonitor globalMonitor_;
    mem::BlockCopier globalCopier_;
    Rng rng_;

    /** Page staging buffer for global transfers. */
    std::vector<std::uint8_t> staging_;
    /** Frames whose image copy is newer than main memory. */
    std::unordered_set<std::uint64_t> dirty_;
    /** Software shadow of the global monitor's action table. */
    std::unordered_map<std::uint64_t, mem::ActionEntry> globalShadow_;

    /** Track the global-shadow footprint for the budget client. */
    void shadowSet(std::uint64_t frame, mem::ActionEntry entry);
    void shadowErase(std::uint64_t frame);

    bool busy_ = false;
    bool kickScheduled_ = false;
    bool dead_ = false;
    /** Service loop wedged (partial failure; distinct from dead_). */
    bool wedged_ = false;
    /** Service-loop progress epoch (see serviceEpoch()). */
    std::uint64_t serviceEpoch_ = 0;
    /** Cluster budget-client hooks (null unless registered). */
    std::function<void()> budgetFault_;
    std::function<void(std::int32_t)> budgetUse_;

    Counter sharedFetches_;
    Counter exclusiveFetches_;
    Counter upgrades_;
    Counter downgrades_;
    Counter invalidates_;
    Counter recalls_;
    Counter globalWriteBacks_;
    Counter retries_;
    Counter wordsLocal_;
    Counter wordsGlobal_;
    Counter spurious_;
    Counter violations_;
    Counter recoveries_;
    Counter localOverflowClears_;
    Counter localAborts_;
};

} // namespace vmp::hier

#endif // VMP_HIER_INTER_BUS_BOARD_HH
