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
 * derives from the same proto::ProtocolClient engine as a processor
 * board's CacheController — its own bus monitor (action table +
 * interrupt FIFO), the engine's block copier, retry delay, table
 * shadow, write-back retry loop, watchdog and overflow recovery — so
 * the global level *is* the paper's flat two-state protocol with
 * inter-bus boards in place of processors. Two-state legality
 * therefore holds per level, with the board acting as the single owner
 * proxy for its whole cluster. What stays here is the local side (the
 * cluster table, the local request FIFO, the service pump and the
 * fetch/upgrade/recall loops) and the per-word policy of the global
 * side.
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
#include <unordered_set>
#include <vector>

#include "mem/bus_types.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/action_table.hh"
#include "monitor/bus_monitor.hh"
#include "monitor/interrupt_fifo.hh"
#include "proto/client.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::hier
{

/**
 * One cluster's inter-bus cache board. Implements mem::BusWatcher on
 * the *local* bus directly (its pass/abort rule differs from a
 * processor monitor's: a cluster-level Shared entry must still block
 * local ownership upgrades until the global upgrade completes) and is
 * a proto::ProtocolClient, over its own monitor, on the *global* bus.
 *
 * The board's software runs on the machine's proto::SoftwareTiming: a
 * service quantum per word taken (global or local), the jittered retry
 * back-off, and installNs per installed page. Its retry loops have no
 * dead-owner deadline: they keep retrying until their frame comes.
 *
 * A failstop kills the board's *software*: the service loop stops at
 * the next software step — bus transactions already in flight
 * complete, they cannot be recalled — and no further global fetches,
 * upgrades or recalls happen. The board's table
 * *hardware* keeps driving both buses: local requests the cluster
 * cannot satisfy keep aborting with nobody left to service them, and
 * the global monitor's stale entries keep aborting other clusters —
 * the hazards the recovery subsystem clears. Inter-bus boards do not
 * hot-rejoin in this model. A wedge stops the pump taking new work
 * while dead() stays false; unwedging kicks it.
 */
class InterBusBoard : public mem::BusWatcher, public proto::ProtocolClient
{
  public:
    /** Install a fetched page in the image and update the tables. */
    static const Tick installNs;

    /**
     * @param cluster_index this cluster's master id on the global bus
     * @param local_master_id the board's master id on the local bus
     *        (must not collide with the cluster's CPU ids)
     * @param image the cluster image (local bus memory); same size and
     *        page geometry as main memory
     * @param timing the machine's software timing; its dead-owner
     *        deadline is not used
     */
    InterBusBoard(std::uint32_t cluster_index,
                  std::uint32_t local_master_id, EventQueue &events,
                  mem::VmeBus &local_bus, mem::VmeBus &global_bus,
                  mem::PhysMem &image,
                  const proto::SoftwareTiming &timing = {},
                  std::size_t fifo_capacity = 128);

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
    monitor::BusMonitor &globalMonitor() { return globalMonitor_; }
    const monitor::BusMonitor &globalMonitor() const
    {
        return globalMonitor_;
    }
    /** True when no service work is pending or in flight. */
    bool idle() const override;
    /** Words currently queued for the service loop (both FIFOs). */
    std::uint64_t pendingWords() const override
    {
        return localFifo_.size() + globalMonitor_.fifo().size();
    }

    /**
     * Arm fault injection on the board's soft spots: the local-side
     * request FIFO, the global-side monitor (FIFO + interrupt
     * delivery) and the global block copier. Null disarms.
     */
    void setFaultHooks(mem::FaultHooks *hooks) override
    {
        localFifo_.setFaultHooks(hooks);
        globalMonitor_.setFaultHooks(hooks, &events_);
        ProtocolClient::setFaultHooks(hooks);
    }

    /**
     * Attach (or detach, with nullptr) an event tracer: global
     * fetches/upgrades record IbcFetch spans, cluster recalls and
     * global write-backs record instants, and the local request FIFO,
     * global monitor and global copier record their own events — all
     * on this board's one @p track. Observation only.
     */
    void
    setTracer(obs::EventTracer *tracer, std::uint16_t track) override
    {
        localFifo_.setTracer(tracer, track, &events_);
        globalMonitor_.setTracer(tracer, track, &events_);
        ProtocolClient::setTracer(tracer, track);
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
    const Counter &localAborts() const { return localAborts_; }
    const Counter &protocolViolations() const { return violations_; }
    void registerStats(StatGroup &group) const;

  protected:
    // --- the global side's per-word policy ---
    void serviceWord(const monitor::InterruptWord &word,
                     Done done) override;
    void recoverFromOverflow(Done done) override;
    void resume() override { kick(); }

  private:
    /** Schedule a service pass (no-op if one is running/scheduled). */
    void kick();
    /** Take the next work item, priority: overflow, global, local. */
    void pump();
    void finishWork();

    /** State-dependent dispatch of a local fetch/upgrade request;
     *  also the retry entry point (cluster state may have changed). */
    void dispatchLocalWord(monitor::InterruptWord word, Done done,
                           proto::RetryLoop loop);
    void fetchFrame(monitor::InterruptWord word, bool exclusive,
                    Done done, proto::RetryLoop loop);
    void upgradeFrame(monitor::InterruptWord word, Done done,
                      proto::RetryLoop loop);
    /** A global fetch/upgrade aborted: drain the global words queued
     *  now, then redispatch after a retry delay. */
    void retryLocalWord(const char *operation, monitor::InterruptWord word,
                        Done done, proto::RetryLoop loop);
    /** After the install charge, set the cluster entry; a dead board
     *  never gets there. */
    void install(Addr base, mem::ActionEntry entry, Done done);

    void downgradeCluster(Addr base, Done done);
    void invalidateCluster(Addr base, Done done);
    /** Clear a stale global action-table entry, if any. */
    void clearGlobalEntryIfStale(Addr base, Done done);

    /** Force every local cache to give up the frame (local
     *  assert-ownership, retried until unaborted). */
    void recallLocal(Addr base, Done done);
    /** One recall attempt; an abort re-enters it after a retry delay. */
    void recallAttempt(Addr base, Done done, proto::RetryLoop loop);
    /** Write the image copy of @p base back to main memory; the global
     *  entry becomes @p after. */
    void writeBackImage(Addr base, mem::ActionEntry after, Done done);

    /** Record an instant event (no-op while no tracer is attached). */
    void traceInstant(obs::EventKind kind, Addr addr);
    /** Record an IbcFetch span started at @p started. */
    void traceFetch(Tick started, Addr addr, bool exclusive,
                    bool upgrade);

    std::uint32_t localId_;
    mem::VmeBus &localBus_;
    mem::PhysMem &image_;

    /** Cluster-level state table (local side). */
    monitor::ActionTable localTable_;
    /** Aborted local requests awaiting a global fetch/upgrade. */
    monitor::InterruptFifo localFifo_;
    /** Monitor watching the global bus for this board. */
    monitor::BusMonitor globalMonitor_;

    /** Page staging buffer for global fetches. */
    std::vector<std::uint8_t> staging_;
    /** Frames whose image copy is newer than main memory. */
    std::unordered_set<std::uint64_t> dirty_;

    bool busy_ = false;
    bool kickScheduled_ = false;

    Counter sharedFetches_;
    Counter exclusiveFetches_;
    Counter upgrades_;
    Counter downgrades_;
    Counter invalidates_;
    Counter recalls_;
    Counter globalWriteBacks_;
    Counter violations_;
    Counter localOverflowClears_;
    Counter localAborts_;
};

} // namespace vmp::hier

#endif // VMP_HIER_INTER_BUS_BOARD_HH
