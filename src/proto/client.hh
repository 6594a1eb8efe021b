/**
 * @file
 * The protocol client: what every master on a two-state VMP bus runs,
 * written once. A processor board's CacheController is one on its bus;
 * in the Section 7 hierarchy an inter-bus board is one on the global
 * bus, where it is just another master. The base class owns Section
 * 3.3's software ownership machinery:
 *  - the bus monitor it drains and the block copier it transfers with;
 *  - the jittered retry delay of an aborted transaction;
 *  - the software shadow of the monitor's action table, with one
 *    table-write primitive and one release primitive;
 *  - the write-back retry loop, with the livelock watchdog and the
 *    dead-owner timed wait every retry loop shares;
 *  - the interrupt drain and its service record;
 *  - FIFO-overflow recovery over the client's Shared frames;
 *  - the liveness state the health witness reads (dead, wedged, the
 *    service-loop progress epoch) and the counters beside it.
 *
 * Each board derives from it and overrides what differs between
 * clients: how one interrupt word is serviced, which frames an overflow
 * sweep drops, what else it queues for its software, and what its
 * failstop, rejoin, tracer and fault hooks reach beyond the engine's.
 */

#ifndef VMP_PROTO_CLIENT_HH
#define VMP_PROTO_CLIENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/block_copier.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "obs/event_tracer.hh"
#include "proto/dead_owner.hh"
#include "proto/timing.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace vmp::proto
{

/**
 * Structured starvation report produced by the livelock watchdog when
 * one logical operation exceeds its retry cap (Section 3.3's retry
 * protocol is probabilistically — not deterministically — live, so
 * starvation must be *detected*, not assumed away).
 */
struct WatchdogReport
{
    /** The starving client: "cpu" (processor board) or "ibc". */
    const char *client = "cpu";
    /** Its master id (the CPU index, or the inter-bus board's cluster). */
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

/** Progress of one bus retry loop, for the watchdog and the dead-owner
 *  timed wait. */
struct RetryLoop
{
    std::uint64_t tries = 0;
    Tick started = 0;
};

/**
 * One master's protocol engine on one two-state bus, the base class of
 * every board that runs the protocol. Its bus and copier completions
 * arrive at busDone() as (token, result): a token below kOwnTokens
 * indexes one of the engine's retry loops, and a board keeps the
 * tokens from kOwnTokens up for its own transfers. What runs after an
 * engine operation is a Thunk.
 */
class ProtocolClient : public mem::BusClient
{
  public:
    /** A cold caller's continuation closure (VM, sync, program CPUs). */
    using Done = std::function<void()>;
    /** Page contents captured for a write-back (one allocation). */
    using PageBuffer = std::shared_ptr<const std::uint8_t[]>;
    using WatchdogHandler = std::function<void(const WatchdogReport &)>;
    using DeadOwnerHandler = std::function<void(const DeadOwnerError &)>;
    /** One overflow-recovery step on a frame before its entry is
     *  released; runs @p next when done. */
    using FrameStep = std::function<void(std::uint64_t frame, Thunk next)>;
    /** First token a board may use for its own bus transfers. */
    static constexpr std::uint64_t kOwnTokens = std::uint64_t{1} << 32;

    /**
     * @param kind "cpu" or "ibc": names the client in reports
     * @param id the client's master id on @p bus
     * @param dead_owner_timeout_ns the dead-owner deadline (0: none)
     * @param seed seed of the retry-jitter stream
     */
    ProtocolClient(const char *kind, std::uint32_t id, EventQueue &events,
                   monitor::BusMonitor &monitor, mem::VmeBus &bus,
                   std::uint32_t page_bytes, Tick dead_owner_timeout_ns,
                   std::uint64_t seed);
    virtual ~ProtocolClient() = default;
    ProtocolClient(const ProtocolClient &) = delete;
    ProtocolClient &operator=(const ProtocolClient &) = delete;

    std::uint32_t id() const { return id_; }
    const char *kind() const { return kind_; }
    mem::VmeBus &bus() { return bus_; }
    mem::BlockCopier &copier() { return copier_; }
    monitor::BusMonitor &monitor() { return monitor_; }
    const monitor::BusMonitor &monitor() const { return monitor_; }
    Tick deadOwnerTimeoutNs() const { return deadOwnerTimeoutNs_; }
    std::uint32_t pageBytes() const { return pageBytes_; }
    std::uint64_t frameOf(Addr paddr) const { return paddr / pageBytes_; }
    Addr frameBase(Addr paddr) const { return alignDown(paddr, pageBytes_); }

    /** Retry delay with desynchronizing jitter (public so the
     *  determinism regression tests can sample the sequence). */
    Tick retryDelay();
    /** Schedule @p fn after @p delay of software execution. */
    void
    afterSoftware(Tick delay, Thunk fn)
    {
        events_.scheduleIn(delay, fn, "sw");
    }
    /** A cold caller's closure as a one-shot Thunk. */
    Thunk box(Done fn) { return events_.box(std::move(fn)); }

    /** Arm fault-injection hooks on the block copier (null disarms). */
    virtual void setFaultHooks(mem::FaultHooks *hooks)
    {
        copier_.setFaultHooks(hooks);
    }
    /** Attach a tracer: Service spans and the copier's Copy spans land
     *  on @p track. Observation only. */
    virtual void setTracer(obs::EventTracer *tracer, std::uint16_t track);
    obs::EventTracer *tracer() const { return tracer_; }
    std::uint16_t traceTrack() const { return traceTrack_; }

    // --- action-table shadow ---

    /** Software's belief about this monitor's action-table entry. */
    mem::ActionEntry shadowEntry(Addr paddr) const;
    /** Full software shadow of the monitor's action table. */
    const std::unordered_map<std::uint64_t, mem::ActionEntry> &
    shadowTable() const
    {
        return shadow_;
    }
    /** Record @p entry as @p frame's table entry (the bus set it). */
    void setShadow(std::uint64_t frame, mem::ActionEntry entry);
    /** Forget the whole shadow (the software lost its memory). */
    void clearShadow() { shadow_.clear(); }
    /** Set this monitor's action-table entry for @p paddr's frame via
     *  the bus; the shadow follows when the write completes. */
    void writeTable(Addr paddr, mem::ActionEntry entry, Thunk done);
    /** writeTable(Ignore) unless the shadow already says Ignore. */
    void releaseEntry(Addr paddr, Thunk done);

    // --- retry loops ---

    /**
     * Issue @p tx on @p bus (null: this client's bus) until it completes,
     * then run @p done. Each abort bumps @p aborts (if any), counts one
     * attempt of the loop named @p operation (retryAbandoned), services
     * the words queued now when @p service_first, and retries after
     * retryDelay(). An abandoned loop runs @p done as it stands. A
     * completion moves the shadow when @p tx updates the table, and
     * reports a table-updating assert-ownership to acquired().
     */
    void retryLoop(const mem::BusTransaction &tx, const char *operation,
                   Counter *aborts, Thunk done, bool service_first = false,
                   mem::VmeBus *bus = nullptr);
    /**
     * Write @p data back to @p frame, leaving its table entry @p after:
     * a retry loop whose aborts bump @p aborts (only another master's
     * stale entry aborts one, and servicing its interrupt clears it).
     * A dead-owner timeout
     * abandons the data: the entry is then set to @p after by an
     * explicit table write, unless @p after is Protect (ownership is
     * kept).
     */
    void writeBack(std::uint64_t frame, PageBuffer data,
                   mem::ActionEntry after, Counter &aborts, Thunk done);
    /**
     * Count one aborted attempt of @p loop and run the watchdog. True
     * when the dead-owner wait has expired and the loop must be
     * abandoned.
     */
    bool retryAbandoned(const char *operation, Addr paddr,
                        RetryLoop &loop);
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

    /**
     * Configure the livelock/starvation watchdog: when any one retry
     * loop exceeds @p max_retries attempts, a WatchdogReport is
     * produced — handed to @p handler if set, warned to stderr
     * otherwise — and counted. The operation keeps retrying either
     * way; the watchdog observes, it does not kill. @p max_retries 0
     * disables the watchdog. Default: cap 1000, no handler.
     */
    void setWatchdog(std::uint64_t max_retries, WatchdogHandler handler = {});
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

    // --- interrupt service ---

    /** True if any interrupt word (or the overflow flag) is pending. */
    bool interruptPending() const
    {
        return !monitor_.fifo().empty() || monitor_.fifo().overflowed();
    }
    /**
     * The service loop's drain: service every pending word, running
     * overflow recovery first whenever the FIFO dropped one. A call
     * made while a drain is live joins it: the drain emits one Service
     * span and one stall charge, then runs every joined @p done in
     * call order. A dead client returns at once; a wedged one defers
     * @p done by one futile service quantum.
     */
    void serviceInterrupts(Thunk done);
    void
    serviceInterrupts(Done done)
    {
        serviceInterrupts(box(std::move(done)));
    }
    /**
     * Service the words queued now, then @p done: no service record,
     * no overflow sweep and no progress epoch. For a retry loop inside
     * one service item of a client whose own loop takes those (the
     * inter-bus board's fetch retries drain as they go, wedged or not).
     */
    void serviceQueued(Thunk done);
    /** Take up one word: count it, then after one service quantum hand
     *  it to serviceWord. */
    void takeWord(const monitor::InterruptWord &word, Thunk next);
    /**
     * Overflow recovery (Section 3.3, conservative): clear the FIFO's
     * overflow flag and count the sweep, then, last frame first, run
     * @p drop (if any) on each of @p frames and release its entry.
     */
    void recoverOverflow(std::vector<std::uint64_t> frames, FrameStep drop,
                         Thunk done);
    /** The client's service loop made progress (a work item taken). */
    void noteProgress() { ++serviceEpoch_; }

    // --- liveness (read by the health witness) ---

    /** Failstop the client's software; the monitor hardware runs on. */
    virtual void failstop() { dead_ = true; }
    /** Cold software restart: alive, neither wedged nor slow. */
    virtual void rejoin();
    /** True between failstop() and rejoin(). */
    bool dead() const { return dead_; }
    /**
     * Wedge / unwedge the service loop (partial failure): words rot in
     * the FIFO while the monitor hardware keeps aborting against stale
     * entries. Unlike failstop the client is NOT silent — dead() stays
     * false — which is why a progress-epoch witness is needed.
     * Unwedging calls resume().
     */
    void setWedged(bool wedged);
    bool wedged() const { return wedged_; }
    /**
     * Inflate interrupt-service latency by an integer factor
     * (fail-slow injection). Factor 1 — the default — multiplies the
     * unscaled charge by one and is bit-identical to it.
     */
    void setServiceSlowdown(std::uint64_t factor);
    /**
     * Service-loop progress epoch: advances whenever the loop
     * demonstrably makes progress (a word or work item taken, an
     * overflow sweep run, a drain pass completed). The health witness
     * compares epochs across observations — a wedged loop's epoch
     * freezes while its backlog persists.
     */
    std::uint64_t serviceEpoch() const { return serviceEpoch_; }
    /** Words waiting for the service software (the wedge witness's
     *  backlog). */
    virtual std::uint64_t pendingWords() const = 0;
    /** True when no service work is pending or in flight. */
    virtual bool idle() const = 0;

    // --- statistics ---
    /** Aborted transactions retried. */
    Counter &retries() { return retries_; }
    const Counter &retries() const { return retries_; }
    /** Words taken up from the monitor FIFO. */
    const Counter &wordsServiced() const { return wordsServiced_; }
    /** Words taken up from the client's own request queue. */
    Counter &requestsServiced() { return requestsServiced_; }
    const Counter &requestsServiced() const { return requestsServiced_; }
    /** Words found already satisfied or stale when serviced. */
    Counter &spuriousWords() { return spurious_; }
    const Counter &spuriousWords() const { return spurious_; }
    const Counter &writeBacks() const { return writeBacks_; }
    const Counter &overflowRecoveries() const { return recoveries_; }
    Tick serviceStallTicks() const { return serviceStall_; }
    /**
     * Cumulative service-software CPU time: the per-word software
     * charge, accrued as each word is taken up by serviceInterrupts().
     * This is what the fail-slow health witness reads, and it differs
     * from serviceStallTicks() in two ways that both matter there: it
     * accrues mid-drain (a fail-slow board under steady traffic may
     * never empty its FIFO, and the stall only commits when a drain
     * finishes), and it excludes bus-wait time (a healthy survivor
     * stalled retrying against a sick *peer* must not be billed as
     * slow itself).
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

    /** A table write or write-back of the engine left the bus. */
    void busDone(std::uint64_t token, const mem::TxResult &res) override;

  protected:
    /** Service one word taken from the monitor FIFO, then @p next. */
    virtual void serviceWord(const monitor::InterruptWord &word,
                             Thunk next) = 0;
    /** FIFO overflow: pick the Shared frames and hand them to
     *  recoverOverflow. */
    virtual void recoverFromOverflow(Thunk done) = 0;
    /** The service loop was unwedged: pick the backlog back up. */
    virtual void resume() {}
    /** A retried assert-ownership of @p frame completed. */
    virtual void acquired(std::uint64_t) {}
    /** The page a block copy reads into: one per client, since its
     *  copier moves one page at a time. */
    std::uint8_t *staging() { return staging_.data(); }

    EventQueue &events_;

  private:
    /** A retry loop in flight (see retryLoop); a table write has no
     *  operation and completes even when bounced at the fence. */
    struct BusOp
    {
        mem::BusTransaction tx;
        const char *operation = nullptr;
        Counter *aborts = nullptr;
        mem::VmeBus *bus = nullptr;
        bool serviceFirst = false;
        RetryLoop loop;
        Thunk done;
        /** A write-back's page (tx.data points into it). */
        PageBuffer data;
    };
    /** A taken word waiting out its service quantum. */
    struct WordOp
    {
        monitor::InterruptWord word;
        Thunk next;
    };

    /** Put @p op on its bus (a write-back through the copier). */
    void issue(std::uint64_t op);
    void retryAfterDelay(std::uint64_t op);
    /** Hand word @p op to serviceWord. */
    void serveWord(std::uint64_t op);
    /** One step of the live drain; an empty FIFO closes it. */
    void drain();
    void releaseFrames(std::shared_ptr<std::vector<std::uint64_t>> frames,
                       FrameStep drop, Thunk done);

    const char *kind_;
    std::uint32_t id_;
    monitor::BusMonitor &monitor_;
    mem::VmeBus &bus_;
    mem::BlockCopier copier_;
    std::uint32_t pageBytes_;
    std::vector<std::uint8_t> staging_;
    Tick deadOwnerTimeoutNs_;
    Rng rng_;
    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;

    /** Software's shadow of the monitor's action table. */
    std::unordered_map<std::uint64_t, mem::ActionEntry> shadow_;

    /** The live drain; later serviceInterrupts() calls join it
     *  (DESIGN.md, "One service record"). */
    struct ServiceRecord
    {
        Tick started = 0;
        std::uint64_t wordsBefore = 0;
        /** Continuations in call order; empty when no drain is live. */
        std::vector<Thunk> waiters;
        /** The last drain's emptied list, kept for its capacity. */
        std::vector<Thunk> spare;
    };
    ServiceRecord service_;
    RecordPool<BusOp> ops_;
    RecordPool<WordOp> words_;

    Counter retries_;
    Counter wordsServiced_;
    Counter requestsServiced_;
    Counter spurious_;
    Counter writeBacks_;
    Counter recoveries_;
    Tick serviceStall_ = 0;
    Tick serviceCpuNs_ = 0;

    // --- livelock watchdog ---
    /** Retry cap per logical operation (0 = watchdog disabled). */
    std::uint64_t watchdogCap_ = 1000;
    WatchdogHandler watchdogHandler_;
    Counter watchdogTrips_;
    std::optional<WatchdogReport> lastReport_;

    // --- dead-owner timed waits / liveness ---
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
    std::uint64_t serviceEpoch_ = 0;
};

} // namespace vmp::proto

#endif // VMP_PROTO_CLIENT_HH
