/**
 * @file
 * Deterministic, seeded fault injector. The paper's central robustness
 * claim (Sections 3.2/3.3) is that *software* recovers from every
 * consistency hazard: aborted transactions are retried with
 * desynchronizing delays, interrupt-FIFO overflow triggers a recovery
 * sweep, and protocol races resolve by retry rather than hardware
 * arbitration. This injector exists to *force* those paths on demand.
 *
 * A FaultSchedule declares, per fault kind, when to fire: with a fixed
 * probability per opportunity, on every Nth opportunity, or both —
 * optionally limited to a [notBefore, notAfter] simulated-time window.
 * The FaultInjector compiles the schedule and implements
 * mem::FaultHooks; components offered a fault ("opportunities") and
 * faults actually fired ("injected") are counted per kind.
 *
 * Determinism: the injector owns its own Rng (seeded from the
 * schedule), and draws from it only when a probabilistic spec is armed
 * for the kind being evaluated and the window is open. An empty
 * schedule therefore consumes no randomness and changes no behavior —
 * a run with a null schedule attached is bit-identical to a run with
 * no injector at all.
 */

#ifndef VMP_FAULT_INJECTOR_HH
#define VMP_FAULT_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/dma.hh"
#include "mem/fault_hooks.hh"
#include "mem/vme_bus.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::fault
{

/** The fault kinds the hardware models expose hooks for. */
enum class FaultKind : std::uint8_t
{
    BusAbort = 0,       //!< spurious abort of a consistency transaction
    Truncate = 1,       //!< block transfer cut off mid-transfer
    CopierStall = 2,    //!< block copier delayed before issuing
    FifoDrop = 3,       //!< interrupt word force-dropped (overflow)
    InterruptDelay = 4, //!< interrupt line raised late
    DmaBurst = 5,       //!< unsolicited DMA write fired mid-run
    BoardCrash = 6,     //!< processor board failstopped mid-run
    // Partial failures (boards that are sick rather than silent):
    MonitorWedge = 7,     //!< service loop stops draining its FIFO
    FifoBabble = 8,       //!< FIFO fabricates garbage interrupt words
    ActionTableStuck = 9, //!< action-table updates silently dropped
    SlowBoard = 10,       //!< interrupt-service latency inflated Nx
};

inline constexpr std::size_t kFaultKinds = 11;

/** True for the per-board partial-failure kinds (time-driven specs). */
bool isPartialFaultKind(FaultKind kind);

const char *faultKindName(FaultKind kind);

/** One declarative trigger for one fault kind. */
struct FaultSpec
{
    FaultKind kind = FaultKind::BusAbort;
    /** Fire with this probability per opportunity (0 = disabled). */
    double probability = 0.0;
    /** Fire on every Nth opportunity of this kind (0 = disabled). */
    std::uint64_t every = 0;
    /** Simulated-time window the spec is active in. */
    Tick notBefore = 0;
    Tick notAfter = maxTick;
    /** Delay magnitude for CopierStall / InterruptDelay, in ns. */
    Tick delayNs = 0;
};

/**
 * One scheduled board failstop. Crashes are *time*-driven rather than
 * opportunity-driven: the system executing the schedule (see
 * core::Machine::enableFaultInjection) turns each entry into
 * killBoard/rejoinBoard events at the given ticks — the injector only
 * accounts for them. Deterministic by construction (no RNG draw).
 */
struct BoardCrashSpec
{
    /** CPU board index — or, with interBus set, the cluster index of
     *  the inter-bus cache board to kill (hierarchical systems). */
    std::uint32_t board = 0;
    /** Tick the board failstops at. */
    Tick at = 0;
    /** Tick the board hot-rejoins at (0 = never rejoins). */
    Tick rejoinAt = 0;
    /** Kill a cluster's inter-bus cache board instead of a CPU. */
    bool interBus = false;
};

/**
 * One scheduled partial failure of one board. Like board crashes these
 * are *time*-driven: the system executing the schedule arms the
 * board's seam at tick `at` (and clears it at `clearAt`, if set) and
 * calls FaultInjector::notePartialFault for the accounting. The one
 * opportunity-driven member is FifoBabble's `rate`: while the window
 * is open the board's monitor asks the injector, once per observed bus
 * transaction, whether to fabricate a garbage word.
 */
struct PartialFaultSpec
{
    FaultKind kind = FaultKind::MonitorWedge;
    /** CPU board index — or, with interBus set, the cluster index of
     *  the inter-bus cache board to wedge (MonitorWedge only). */
    std::uint32_t board = 0;
    /** Tick the failure sets in. */
    Tick at = 0;
    /** Tick the underlying fault clears again (0 = never). */
    Tick clearAt = 0;
    /** FifoBabble: garbage words per observed bus transaction. */
    double rate = 0.0;
    /** SlowBoard: service-latency multiplier (>= 1). */
    std::uint64_t factor = 1;
    /** Wedge the cluster's inter-bus board instead of a CPU board. */
    bool interBus = false;
};

/**
 * A seed plus a list of FaultSpecs. The builder methods append one
 * spec each and return *this, so schedules read declaratively:
 *
 *   FaultSchedule s;
 *   s.seed = 42;
 *   s.busAborts(0.01).fifoDrops(0.05).window(0, MiB(1));
 *
 * window()/everyNth() modify the most recently appended spec.
 */
struct FaultSchedule
{
    /** Seed of the injector's private Rng. */
    std::uint64_t seed = 1;
    std::vector<FaultSpec> specs;
    /** Scheduled board failstops (see BoardCrashSpec). */
    std::vector<BoardCrashSpec> crashes;
    /** Scheduled partial failures (see PartialFaultSpec). */
    std::vector<PartialFaultSpec> partials;

    FaultSchedule &busAborts(double p);
    FaultSchedule &truncations(double p);
    FaultSchedule &copierStalls(double p, Tick delay_ns);
    FaultSchedule &fifoDrops(double p);
    FaultSchedule &interruptDelays(double p, Tick delay_ns);
    FaultSchedule &dmaBursts(double p);

    /** Restrict the last appended spec to [not_before, not_after]. */
    FaultSchedule &window(Tick not_before, Tick not_after);
    /** Make the last appended spec also fire every @p n opportunities. */
    FaultSchedule &everyNth(std::uint64_t n);

    /** Failstop CPU board @p board at tick @p at. */
    FaultSchedule &crashBoard(std::uint32_t board, Tick at);
    /** Failstop cluster @p cluster's inter-bus board at tick @p at. */
    FaultSchedule &crashInterBus(std::uint32_t cluster, Tick at);
    /** Make the most recently appended crash hot-rejoin at @p t. */
    FaultSchedule &rejoinAt(Tick t);

    /** Wedge CPU board @p board's interrupt-service loop at @p at. */
    FaultSchedule &wedgeMonitor(std::uint32_t board, Tick at);
    /** Wedge cluster @p cluster's inter-bus board service loop. */
    FaultSchedule &wedgeInterBus(std::uint32_t cluster, Tick at);
    /** Make board @p board's FIFO babble garbage words at @p rate
     *  (words per observed bus transaction) from @p at on. */
    FaultSchedule &babbleFifo(std::uint32_t board, Tick at, double rate);
    /** Silently drop board @p board's action-table updates from @p at. */
    FaultSchedule &stickActionTable(std::uint32_t board, Tick at);
    /** Inflate board @p board's interrupt-service latency @p factor x
     *  from @p at on. */
    FaultSchedule &slowBoard(std::uint32_t board, Tick at,
                             std::uint64_t factor);
    /** Make the most recently appended partial failure clear at @p t
     *  (the underlying fault recovers; the board may be unfenced). */
    FaultSchedule &clearAt(Tick t);

    /** True if any spec could ever fire for @p kind. */
    bool arms(FaultKind kind) const;
    /** True if no spec can ever fire. */
    bool empty() const;

  private:
    FaultSchedule &append(FaultKind kind, double p, Tick delay_ns);
    FaultSchedule &appendPartial(PartialFaultSpec spec);
};

/**
 * The concrete mem::FaultHooks implementation. Attach it to the
 * components under test via their setFaultHooks() methods (or let
 * core::Machine::enableFaultInjection wire a whole system).
 *
 * DMA bursts: call attachDmaTarget() with a scratch physical region
 * that no CPU ever caches (the demand translator reserves low frames
 * for exactly this). Each burst streams one deterministic page into
 * the scratch region through an owned DmaDevice, adding real bus
 * contention mid-run without breaking the software DMA bracket that
 * coherence relies on. Burst opportunities piggyback on bus-abort
 * hook calls (i.e. one opportunity per consistency transaction).
 */
class FaultInjector final : public mem::FaultHooks
{
  public:
    FaultInjector(EventQueue &events, FaultSchedule schedule);

    // --- mem::FaultHooks ---
    bool injectBusAbort(const mem::BusTransaction &tx) override;
    bool injectTruncate(const mem::BusTransaction &tx) override;
    Tick injectCopierStall(const mem::BusTransaction &tx) override;
    bool injectFifoDrop() override;
    Tick injectInterruptDelay() override;
    std::uint32_t injectFifoBabble(std::uint32_t owner) override;

    /**
     * Enable DMA bursts against @p bus: one page of @p page_bytes per
     * burst, round-robin over @p pages frames starting at
     * @p scratch_base. @p master_id must not collide with any CPU.
     */
    void attachDmaTarget(mem::VmeBus &bus, std::uint32_t master_id,
                         Addr scratch_base, std::uint32_t page_bytes,
                         std::uint32_t pages);

    const FaultSchedule &schedule() const { return schedule_; }
    bool armed(FaultKind kind) const;

    /**
     * Account one executed board crash (called by the system executing
     * the schedule's BoardCrashSpec entries at their trigger tick).
     */
    void noteBoardCrash();

    /**
     * Account one partial failure armed at its trigger tick (called by
     * the system executing the schedule's PartialFaultSpec entries;
     * FifoBabble is instead accounted per fabricated word through
     * injectFifoBabble).
     */
    void notePartialFault(FaultKind kind);

    /** Hook calls offered for @p kind so far. */
    std::uint64_t opportunities(FaultKind kind) const;
    /** Faults actually fired for @p kind so far. */
    const Counter &injected(FaultKind kind) const;
    /** Total faults fired across all kinds. */
    std::uint64_t totalInjected() const;

    void registerStats(StatGroup &group) const;

  private:
    /** One compiled spec. */
    struct Arm
    {
        double probability;
        std::uint64_t every;
        Tick notBefore;
        Tick notAfter;
        Tick delayNs;
    };

    /**
     * Evaluate the arms of @p kind for one opportunity. Returns true
     * if any arm fires; @p delay_ns (if non-null) receives the firing
     * arm's delay magnitude.
     */
    bool fire(FaultKind kind, Tick *delay_ns = nullptr);

    /** Evaluate a DmaBurst opportunity and start a burst if it fires. */
    void maybeDmaBurst();

    EventQueue &events_;
    FaultSchedule schedule_;
    Rng rng_;
    std::vector<Arm> arms_[kFaultKinds];
    /** Compiled FifoBabble specs (fast no-babble short-circuit). */
    std::vector<PartialFaultSpec> babbles_;
    std::uint64_t opportunities_[kFaultKinds] = {};
    Counter injected_[kFaultKinds];

    // DMA burst machinery (null until attachDmaTarget()).
    std::unique_ptr<mem::DmaDevice> dma_;
    Addr dmaBase_ = 0;
    std::uint32_t dmaPageBytes_ = 0;
    std::uint32_t dmaPages_ = 0;
    std::uint64_t dmaSeq_ = 0;
    bool dmaBusy_ = false;
};

} // namespace vmp::fault

#endif // VMP_FAULT_INJECTOR_HH
