/**
 * @file
 * The shared VMEbus model: single-master-at-a-time arbitration under a
 * selectable discipline (plain FIFO, VME-style static priority levels,
 * or round-robin), block transfers at the paper's sequential-access
 * timing (300 ns first 32-bit word, 100 ns per subsequent word,
 * ~40 MB/s), a 150 ns consistency-check/action-table-update interval
 * overlapped with the transfer, and abort semantics (an aborted
 * transaction terminates at the end of the current memory reference and
 * moves no architected data — write-back is the only transaction that
 * modifies main memory).
 *
 * Bus monitors attach as BusWatcher instances; every watcher — including
 * the requester's own, which is what makes the alias "competing against
 * itself" trick of Section 3.3 work — observes every consistency-related
 * transaction and may interrupt its processor and/or abort the
 * transaction.
 */

#ifndef VMP_MEM_VME_BUS_HH
#define VMP_MEM_VME_BUS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/bus_types.hh"
#include "mem/fault_hooks.hh"
#include "mem/phys_mem.hh"
#include "obs/event_tracer.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::mem
{

/**
 * Bus arbitration discipline. The VMEbus spec offers both a
 * prioritized scheme (four bus-request lines BR0-BR3, daisy-chained
 * within a level) and fairness options; the comparison of service
 * disciplines for a shared-bus multiprocessor with private caches is
 * the subject of arXiv 1004.3560.
 */
enum class Arbitration : std::uint8_t
{
    /** First-come first-served over all masters (seed behavior). */
    Fifo,
    /**
     * VME-style static priority: each master is assigned a bus-request
     * level; a higher level always wins arbitration, and requests on
     * the same level are served in arrival (daisy-chain) order.
     * Arbitration is non-preemptive — the transaction on the bus always
     * completes.
     */
    Priority,
    /**
     * Round-robin: the arbiter grants the requesting master that
     * follows the previous holder in cyclic master-id order, so no
     * master can capture the bus while others are waiting.
     */
    RoundRobin,
};

const char *arbitrationName(Arbitration discipline);
/** Parse "fifo" / "priority" / "rr" (or "round-robin"). */
Arbitration arbitrationFromName(const std::string &name);

/** Arbitration configuration of one bus. */
struct ArbitrationConfig
{
    Arbitration discipline = Arbitration::Fifo;
    /**
     * Number of bus-request levels (Priority only; VME has four,
     * BR0-BR3). A master's default level is id % priorityLevels with
     * *higher* numeric level winning, like BR3 > BR0; override with
     * VmeBus::setMasterLevel.
     */
    unsigned priorityLevels = 4;

    void check() const;
};

// Timing of bus and memory (Sections 2, 4 and 5.1).

/** First sequential access to a memory board. */
inline constexpr Tick kFirstWordNs = 300;
/** Each subsequent sequential 32-bit word. */
inline constexpr Tick kWordNs = 100;
/** Consistency-check / action-table-update interval. */
inline constexpr Tick kCheckNs = 150;
/**
 * Bus occupancy of non-block transactions (assert-ownership,
 * notify, write-action-table): one address/check cycle.
 */
inline constexpr Tick kShortTxNs = 450;
/** Occupancy of an aborted transaction (terminates at the end of
 *  the current memory reference). */
inline constexpr Tick kAbortNs = 450;

/** Block transfer occupancy for @p bytes (32-bit strobes). */
constexpr Tick
blockNs(std::uint32_t bytes)
{
    if (bytes == 0)
        return 0;
    const std::uint32_t words = (bytes + 3) / 4;
    return kFirstWordNs + static_cast<Tick>(words - 1) * kWordNs;
}

/** Total bus occupancy of a (successful) transaction. */
constexpr Tick
occupancy(TxType type, std::uint32_t bytes)
{
    // The 150 ns check/update interval is overlapped with the block
    // transfer (Figure 2), so block transactions cost only the
    // transfer; short transactions cost one address/check cycle.
    return movesData(type) ? blockNs(bytes) : kShortTxNs;
}

/**
 * Interface bus monitors implement to watch the bus. observe() is called
 * for every consistency-related transaction (on every watcher);
 * sideEffectUpdate() is called only on the requester's watcher when its
 * transaction completes unaborted, carrying the Section 3.2 concurrent
 * action-table update.
 */
class BusWatcher
{
  public:
    virtual ~BusWatcher() = default;

    /** Decide and take local action (e.g. queue an interrupt word). */
    virtual WatchVerdict observe(const BusTransaction &tx) = 0;

    /** Action-table side-effect update for the issuing processor. */
    virtual void sideEffectUpdate(const BusTransaction &tx) = 0;
};

/** Outcome handed to the requester's completion. */
struct TxResult
{
    bool aborted = false;
    /** Time the transaction spent queued waiting for the bus. */
    Tick queueDelay = 0;
    /** Bus occupancy of this transaction. */
    Tick busTime = 0;
};

/** A master taking its transactions' completions. */
class BusClient
{
  public:
    /** The transaction requested with @p token left the bus. */
    virtual void busDone(std::uint64_t token, const TxResult &result) = 0;

  protected:
    ~BusClient() = default;
};

/** Where a completion goes: client->busDone(token, result). The token
 *  names the requester's own record; a null client takes none. */
struct Completion
{
    BusClient *client = nullptr;
    std::uint64_t token = 0;

    void
    operator()(const TxResult &result) const
    {
        if (client != nullptr)
            client->busDone(token, result);
    }
};

/** The shared bus; as a BusClient it runs its boxed closures. */
class VmeBus : private BusClient
{
  public:
    /** A cold caller's completion closure (tests, DMA, recovery). */
    using Callback = std::function<void(const TxResult &)>;

    VmeBus(EventQueue &events, PhysMem &memory,
           const ArbitrationConfig &arbitration = {});

    /**
     * Register @p watcher as the bus monitor of master @p id. Masters
     * without watchers (DMA devices) simply never get side-effect
     * updates.
     */
    void attachWatcher(std::uint32_t id, BusWatcher &watcher);

    /**
     * Queue a transaction. The completion runs when the transaction
     * leaves the bus (successfully or aborted); the configured
     * arbitration discipline picks among queued requests each time the
     * bus frees.
     */
    void request(const BusTransaction &tx, Completion done);
    /** As above for a closure, which the bus boxes until it runs. */
    void
    request(const BusTransaction &tx, Callback done)
    {
        request(tx, done ? Completion{this, boxes_.put(std::move(done))}
                         : Completion{});
    }

    /** True if a transaction currently occupies the bus. */
    bool busy() const { return busy_; }

    const ArbitrationConfig &arbitration() const { return arb_; }

    /**
     * Override the bus-request level of master @p id (Priority
     * discipline; higher level wins). Without an override a master
     * requests on level id % priorityLevels.
     */
    void setMasterLevel(std::uint32_t id, unsigned level);
    /** Effective bus-request level of master @p id. */
    unsigned levelOf(std::uint32_t id) const;

    /**
     * Fence master @p id off the bus (partial-failure quarantine): its
     * requests are dropped at arbitration — never granted, never
     * observed by any monitor; each completes aborted after one short
     * transaction's time, so a babbling or wedged board's retry loops
     * starve out deterministically instead of saturating the bus. Distinct from
     * monitor masking, which silences a board's *watcher*; the fence
     * silences its *requests*. Unfence before a cold rejoin.
     */
    void setMasterFenced(std::uint32_t id, bool fenced);
    /** True while master @p id is fenced off the bus. */
    bool isMasterFenced(std::uint32_t id) const;
    /** Requests dropped at the fence. */
    const Counter &fencedDrops() const { return fencedDrops_; }

    /** Event queue the bus schedules on (for components that share
     *  its timeline, e.g. a stalled block copier). */
    EventQueue &eventQueue() { return events_; }

    /**
     * Attach (or detach, with nullptr) a fault-injection hook. With no
     * hook attached the bus behaves exactly as before — the hook test
     * is a single untaken branch per transaction.
     */
    void setFaultHooks(FaultHooks *hooks) { hooks_ = hooks; }

    /**
     * Attach (or detach, with nullptr) an event tracer; every
     * completed transaction is recorded as a BusTx span on @p track.
     * Like the fault hooks, a null tracer costs one untaken branch
     * per transaction, and a non-null tracer only observes — the
     * simulated timeline is unchanged either way.
     */
    void
    setTracer(obs::EventTracer *tracer, std::uint16_t track)
    {
        tracer_ = tracer;
        traceTrack_ = track;
    }

    /**
     * Observer called after every transaction completes — after data
     * movement and side-effect table updates, before the requester's
     * completion callback. Observers run in attachment order; the
     * coherence checker and the recovery failure detector each attach
     * one.
     */
    using TxObserver =
        std::function<void(const BusTransaction &, const TxResult &)>;
    void addTxObserver(TxObserver observer)
    {
        txObservers_.push_back(std::move(observer));
    }

    // --- statistics ---
    const Counter &transactions() const { return transactions_; }
    const Counter &aborts() const { return aborts_; }
    /** Occupancy of *completed* transactions; the in-flight one is
     *  charged when it leaves the bus. */
    Tick busyTicks() const { return busyTicks_; }
    /**
     * Bus utilization over [0, now]. The transaction currently on the
     * bus (if any) contributes only its already-elapsed share, so the
     * value is correct — and never above 1.0 — at any sampling point,
     * not just at quiescence.
     */
    double utilization() const;
    /**
     * *Completed* (non-aborted) transactions of a given type. An
     * aborted-then-retried transaction therefore counts exactly once
     * here when it finally succeeds; the aborted attempts show up only
     * in abortsOf(). (Counting aborted grants here used to double-count
     * every retried transaction during recovery storms.)
     */
    const Counter &countOf(TxType type) const;
    /** Aborted transactions of a given type. */
    const Counter &abortsOf(TxType type) const;
    /** Aborts forced by the fault-injection hook (subset of aborts). */
    const Counter &injectedAborts() const { return injectedAborts_; }
    /**
     * Distribution of arbitration queueing delays (us buckets) of
     * *completed* grants. An aborted-then-retried transaction samples
     * once per grant that completes — consistent with the
     * completed-only per-TxType counters — while the waits of its
     * aborted attempts land in abortedQueueDelays(). (Sampling every
     * grant here used to skew the distribution during recovery storms:
     * each retry chain contributed one sample per attempt.)
     */
    const Histogram &queueDelays() const { return queueDelays_; }
    /** Queueing delays of grants that ended in an abort. */
    const Histogram &abortedQueueDelays() const
    {
        return abortedQueueDelays_;
    }
    /**
     * Queueing-delay distribution of completed grants issued on
     * bus-request level @p level (Priority discipline only — empty
     * under FIFO and round-robin).
     */
    const Histogram &queueDelaysOfLevel(unsigned level) const;
    /** Completed grants per bus-request level (Priority only). */
    const Counter &grantsOfLevel(unsigned level) const;
    void registerStats(StatGroup &group) const;

  private:
    struct Pending
    {
        BusTransaction tx;
        Completion done;
        Tick queuedAt;
    };

    void
    busDone(std::uint64_t token, const TxResult &result) override
    {
        boxes_.take(token)(result);
    }
    void grant();
    /** Pick the next queued request under the configured discipline. */
    std::vector<Pending>::iterator selectNext();
    /** The transaction on the bus leaves it. */
    void complete();
    /** A fenced request's aborted completion: (client, token). */
    static void bounce(void *client, std::uint64_t token);

    EventQueue &events_;
    PhysMem &mem_;
    ArbitrationConfig arb_;
    std::vector<std::pair<std::uint32_t, BusWatcher *>> watchers_;
    /** Per-master level overrides (Priority discipline). */
    std::vector<std::pair<std::uint32_t, unsigned>> levelOverrides_;
    std::vector<Pending> queue_;
    /** The transaction on the bus (valid while busy_), its verdict and
     *  its queueing delay. */
    Pending onBus_{};
    bool onBusAborted_ = false;
    Tick onBusQueueDelay_ = 0;
    /** The closures of request(tx, Callback). */
    RecordPool<Callback> boxes_;
    /** Masters currently fenced off the bus (normally empty). */
    std::vector<std::uint32_t> fenced_;
    bool busy_ = false;
    /** Master granted most recently (round-robin rotation point). */
    std::uint32_t lastMaster_ = 0;
    FaultHooks *hooks_ = nullptr;
    std::vector<TxObserver> txObservers_;
    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;

    Counter transactions_;
    Counter aborts_;
    Counter injectedAborts_;
    Counter fencedDrops_;
    Counter typeCounts_[kTxTypes];
    Counter typeAborts_[kTxTypes];
    /** Queue delay in microseconds, 1 us buckets up to 64 us. */
    Histogram queueDelays_{64, 1.0};
    Histogram abortedQueueDelays_{64, 1.0};
    /** Per-bus-request-level delays/grants (Priority only; one slot
     *  per configured level). */
    std::vector<Histogram> levelDelays_;
    std::vector<Counter> levelGrants_;
    Tick busyTicks_ = 0;
    /** Issue tick of the transaction on the bus (valid while busy_). */
    Tick txStartTick_ = 0;
    /** Occupancy of the transaction on the bus (valid while busy_). */
    Tick txBusTime_ = 0;
};

} // namespace vmp::mem

#endif // VMP_MEM_VME_BUS_HH
