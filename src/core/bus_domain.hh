/**
 * @file
 * Machine assembly. Every VMP machine repeats one unit, the BusDomain:
 * a VMEbus, the memory it serves, and the clients that watch it —
 * processor boards and, in the hierarchy, inter-bus boards (the bridge
 * of a cluster bus, or the clients of the global bus). A domain owns
 * its optional coherence checker, recovery manager and frame
 * checkpoint, and wires its own fault hooks and tracer tracks.
 *
 * Machine holds what spans domains — the event queue, the translator,
 * the fault injector, the tracer and the running CPUs — and writes the
 * machine-wide behaviour once over its domain list: runs, idle
 * service, fault arming, kill/rejoin, checkers, recovery, checkpoints,
 * the statistics and, over every protocol client (processor boards and
 * inter-bus boards alike), the health probe, the watchdog, quiesce()
 * and the partial-fault wedge. A flat VmpSystem is one domain; a
 * HierVmpSystem is k cluster domains plus the global one. The two
 * differ only in how their constructors build the domains.
 *
 * Domains are kept in layout order, the root (main-memory) domain
 * first; stat groups and tracer tracks follow it. Checkers, recovery
 * managers and checkpoints install in install order: every non-root
 * domain in turn, then the root.
 */

#ifndef VMP_CORE_BUS_DOMAIN_HH
#define VMP_CORE_BUS_DOMAIN_HH

#include <experimental/propagate_const>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backing/checkpoint.hh"
#include "backing/page_store.hh"
#include "check/coherence_checker.hh"
#include "cpu/program_cpu.hh"
#include "cpu/trace_cpu.hh"
#include "fault/injector.hh"
#include "hier/inter_bus_board.hh"
#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "obs/event_tracer.hh"
#include "obs/miss_profiler.hh"
#include "proto/controller.hh"
#include "proto/translator.hh"
#include "recover/recovery.hh"
#include "sim/event.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "trace/ref.hh"

namespace vmp::core
{

struct ProcessorBoard;
struct RunResult;
struct VmpConfig;

/**
 * A unique_ptr whose pointee is const wherever its owner is. A const
 * BusDomain then hands out only const clients, so an observer of a
 * const Machine (telemetry's collectors) can read them but not change
 * them.
 */
template <typename T>
using Owned = std::experimental::propagate_const<std::unique_ptr<T>>;

/** One bus, the memory it serves, and its clients. */
struct BusDomain
{
    BusDomain(EventQueue &events, std::uint64_t mem_bytes,
              std::uint32_t page_bytes,
              const mem::ArbitrationConfig &arbitration);
    ~BusDomain(); // out of line: ProcessorBoard is incomplete here

    /** Stat-group name of a per-domain subsystem ("check", ...). */
    std::string
    groupName(const char *what) const
    {
        return groupPrefix + what + groupSuffix;
    }

    /** Point the bus, bridge and every board at @p injector. */
    void setFaultHooks(fault::FaultInjector &injector);
    /** Register this domain's tracks: bus, bridge, then each board. */
    void setTracer(obs::EventTracer &tracer);
    void enableChecker();
    /** Recovery over every client; fence hooks are the machine's. */
    void enableRecovery(const recover::RecoveryConfig &options,
                        obs::EventTracer *tracer,
                        std::uint16_t recover_track);
    void enableCheckpoint(Asid asid);

    EventQueue &events;
    /** Stat group and track of the bus. */
    std::string busName = "bus";
    /** Around "ibc", "check", "recover" and "backing" group names. */
    std::string groupPrefix;
    std::string groupSuffix;
    mem::PhysMem memory;
    mem::VmeBus bus;
    /** Inter-bus board bridging this (cluster) bus to the global bus. */
    Owned<hier::InterBusBoard> bridge;
    /** Inter-bus boards acting as this (global) bus's clients. */
    std::vector<hier::InterBusBoard *> globalClients;
    /** Machine-wide CPU index of boards[0]. */
    CpuId firstCpu = 0;
    std::vector<Owned<ProcessorBoard>> boards;
    Owned<check::CoherenceChecker> checker;
    Owned<recover::RecoveryManager> recovery;
    std::unique_ptr<backing::PageStore> checkpointStore;
    std::unique_ptr<backing::FrameCheckpointer> checkpointer;
};

/** What every VMP machine does, written once over its domains. */
class Machine
{
  public:
    EventQueue &events() { return events_; }
    const EventQueue &events() const { return events_; }
    /** Main memory (the root domain's). */
    mem::PhysMem &memory() { return root().memory; }
    const mem::PhysMem &memory() const { return root().memory; }

    /** The root (main-memory) domain: a flat machine's only bus, or
     *  the global bus of a hierarchy. */
    BusDomain &root() { return *domains_.front(); }
    const BusDomain &root() const { return *domains_.front(); }
    /** Cluster @p k's domain; on a flat machine every k is out of
     *  range. */
    BusDomain &cluster(std::size_t k);
    const BusDomain &cluster(std::size_t k) const;
    /** Number of domains in layout order, the root first. */
    std::size_t domainCount() const { return domains_.size(); }
    /** Domain @p i of that order, for observers (telemetry). */
    const BusDomain &domain(std::size_t i) const { return *domains_.at(i); }

    /** Board/controller for the machine-wide CPU index. */
    ProcessorBoard &board(std::size_t cpu);
    const ProcessorBoard &board(std::size_t cpu) const;
    proto::CacheController &controller(std::size_t cpu);
    const proto::CacheController &controller(std::size_t cpu) const;

    /**
     * Attach one scripted CPU per program (CPU i uses ASID i+1) and
     * run until every program halts. Returns the CPUs for register
     * inspection. Keep them alive while continuing to use the system:
     * even halted processors service their bus monitors, and pages
     * they own privately are unreachable to other masters otherwise.
     */
    std::vector<std::unique_ptr<cpu::ProgramCpu>>
    runPrograms(const std::vector<cpu::Program> &programs);

    /**
     * Make every board an idle processor (proto::IrqService::Idle).
     * Use when driving controllers directly; TraceCpu/ProgramCpu set
     * their board's mode themselves and turn it Off when destroyed.
     */
    void attachIdleServicers();

    /**
     * attachIdleServicers(), run the queue dry, and report whether
     * every live protocol client — processor board or inter-bus board
     * — is idle (a dead client has nothing to drain). An idle board
     * re-polls a wedged service loop until the wedge clears.
     */
    bool quiesce();

    /**
     * With the internal demand translator: declare user pages
     * non-shared (Section 5.4 hint). Read misses to user pages then
     * fetch read-private, eliminating later write upgrades.
     */
    void setUserPrivateHint(bool enabled);

    /**
     * Install a coherence-invariant checker on every bus: online
     * single-owner checking per transaction plus checkFull() sweeps
     * at quiescence, with full per-controller invariants against the
     * memory a bus serves, and monitor-only single-owner checking
     * across the inter-bus boards on a global bus. At most once.
     * Returns the root domain's checker.
     */
    check::CoherenceChecker &enableCoherenceCheckers();

    /**
     * Install failstop recovery on every bus: per domain, a
     * FailureDetector over its clients, the reclaim coordinator, and
     * the dead-owner oracle on every client (so stranded waits abandon
     * with a structured DeadOwnerError instead of retrying forever).
     * A bridge is a liveness-only client of its cluster bus (a dead
     * bridge strands every remote frame); on the global bus each
     * inter-bus board is a protocol client whose Protect frames are
     * reclaimed into main memory. With checkers installed (before or
     * after), every completed reclaim triggers the matching
     * single-owner sweep. At most once, before any traffic. Returns
     * the root domain's manager.
     */
    recover::RecoveryManager &
    enableRecovery(recover::RecoveryConfig options = {});

    /**
     * Install an NVRAM-shadowed frame checkpoint on every bus: a
     * cache-page-granule backing::PageStore kept a live shadow of the
     * domain's memory (main memory or a cluster image) by a
     * FrameCheckpointer snapshotting every completed ownership
     * transfer on its bus (zero simulated cost — the memory board
     * mirrors writes into stable storage). Recovery managers,
     * installed before or after, restore reclaimed frames from their
     * domain's store, driving pages_lost to zero by construction.
     * @p asid is the reserved space id frames are keyed under. At
     * most once, before any traffic. Returns the root domain's store.
     */
    backing::PageStore &enableFrameCheckpoint(Asid asid = 0xFE);

    /**
     * Full sweep on every installed checker (quiescence only).
     * @return violations found by this sweep, summed over checkers.
     */
    std::uint64_t checkFullAll();

    /** Total violations across all checkers so far. */
    std::uint64_t totalViolations() const;

    /**
     * Arm a fault injector over the whole machine: every bus, every
     * board's interrupt FIFO, delivery path and block copier, and
     * every inter-bus board's FIFOs and global copier. May be called
     * at most once, before any traffic. With DmaBurst armed, a DMA
     * engine on the main bus writes scratch frames (inside the
     * translator's reserved low region, never cached) mid-run. Board
     * crashes, rejoins and partial faults in the schedule become
     * events now, in schedule order. Returns the injector for stats.
     */
    fault::FaultInjector &
    enableFaultInjection(const fault::FaultSchedule &schedule);

    /** The armed injector, or null if none. */
    fault::FaultInjector *faultInjector() { return injector_.get(); }

    /**
     * Arm the observability subsystem: a per-board ring-buffer event
     * tracer over every bus, monitor/FIFO, controller miss phases and
     * block copier, inter-bus board and (if installed) recovery
     * coordinator — plus a MissProfiler folding the traced phases
     * into per-miss breakdowns. Tracks are per domain (bus, bridge,
     * then "cpuN" per board) plus one shared "recover" track. Pure
     * observation: no event is scheduled and no RNG is drawn, so
     * simulated time is bit-identical with tracing on or off. May be
     * called at most once, before any traffic; recovery enabled later
     * is wired onto "recover" automatically.
     */
    obs::EventTracer &enableTracing(obs::TraceConfig config = {});

    /** The armed tracer, or null if tracing is off. */
    obs::EventTracer *tracer() { return tracer_.get(); }
    const obs::EventTracer *tracer() const { return tracer_.get(); }

    /** The attached miss profiler, or null. */
    obs::MissProfiler *missProfiler() { return profiler_.get(); }
    const obs::MissProfiler *missProfiler() const
    {
        return profiler_.get();
    }

    /**
     * Failstop board @p cpu at tick @p at: its CPU halts at the next
     * instruction boundary and its controller software dies, but its
     * bus monitor keeps driving the bus from stale table state — the
     * hazard the recovery subsystem exists to clear. Without recovery
     * the stale Protect entries wedge every later access to the dead
     * board's pages (surfaced as DeadOwnerErrors when the controllers'
     * deadOwnerTimeoutNs expires).
     */
    void killBoard(std::uint32_t cpu, Tick at);

    /**
     * Hot-rejoin board @p cpu at tick @p at: the monitor is unmasked
     * with a cleared table, the controller restarts cold, and the CPU
     * resumes its trace. If its domain is reclaiming at @p at the
     * rejoin defers until the reclaim completes.
     */
    void rejoinBoard(std::uint32_t cpu, Tick at);

    /**
     * Failstop cluster @p cluster's inter-bus cache board at tick
     * @p at: its service software dies, stranding the cluster's remote
     * misses and its global Protect frames. Inter-bus boards do not
     * hot-rejoin. Fatal on a flat machine or out of range.
     */
    void killInterBusBoard(std::uint32_t cluster, Tick at);

    /**
     * Configure the livelock watchdog on every protocol client, the
     * inter-bus boards' fetch, upgrade, recall and write-back loops
     * included: a starving operation (more than @p maxRetries
     * consecutive aborts) fires @p handler once (default: a warning)
     * and keeps retrying. A cap of 0 disables the watchdog.
     */
    void setWatchdog(std::uint64_t maxRetries,
                     proto::ProtocolClient::WatchdogHandler handler = {});

    /** gem5-style dump of every component's statistics. */
    void dumpStats(std::ostream &os) const;

    /**
     * Aggregate every component's StatGroup into a StatRegistry and
     * serialize it: {"bus": {...}, "cpu0": {...}, ...}. Histograms
     * (e.g. the bus arbitration queue-delay distribution) serialize
     * as objects with samples/mean/min/max/underflow/buckets.
     */
    Json statsJson() const;

  protected:
    /** @p tag prefixes fatal messages ("system", "hier"). */
    explicit Machine(const char *tag) : tag_(tag) {}
    ~Machine() = default;

    /** Use @p translator, or build the internal DemandTranslator
     *  (kernel region shared across ASIDs) when it is null. */
    void useTranslator(proto::Translator *translator,
                       std::uint64_t mem_bytes, std::uint32_t page_bytes);
    /** Append a domain; the first one added is the root. */
    BusDomain &addDomain(std::uint64_t mem_bytes, std::uint32_t page_bytes,
                         const mem::ArbitrationConfig &arbitration);
    /** Build @p count boards on @p domain, numbered machine-wide. */
    void addBoards(BusDomain &domain, std::uint32_t count,
                   const VmpConfig &config);

    /** Run one trace CPU per source to completion, each with the others
     *  as its lookahead peers (TraceCpu::setPeers), and fill the
     *  RunResult fields every machine reports alike. */
    void runTraceCpus(const std::vector<trace::RefSource *> &sources,
                      RunResult &result);

  private:
    struct BoardSlot
    {
        ProcessorBoard *board;
        BusDomain *domain;
    };

    /** Every non-root domain in turn, then the root. */
    std::vector<BusDomain *> installOrder() const;
    /** The CPU running on board @p cpu, or null. */
    cpu::TraceCpu *activeCpu(std::uint32_t cpu) const;
    /** Rejoin body (defers itself while the domain is reclaiming). */
    void doRejoin(std::uint32_t cpu);
    /** Cluster @p k's inter-bus board as the target of the fault call
     *  @p what; fatal on a flat machine or out of range. */
    hier::InterBusBoard &interBusTarget(std::uint32_t k,
                                        const char *what) const;
    /** The board (null for an inter-bus board) and protocol client a
     *  partial-failure spec targets; fatal when it names none. */
    std::pair<ProcessorBoard *, proto::ProtocolClient *>
    partialTarget(const fault::PartialFaultSpec &spec) const;
    /** Turn one scheduled partial-failure spec into onset/clear events
     *  on its board or inter-bus board. */
    void armPartialFault(const fault::PartialFaultSpec &spec);
    /** Every protocol client: each domain's bridge, then its boards. */
    std::vector<proto::ProtocolClient *> clients();
    /** The one stat-group layout dumpStats and statsJson share. */
    void buildStats(std::vector<std::unique_ptr<StatGroup>> &groups,
                    StatRegistry &registry) const;

    const char *tag_;
    EventQueue events_;
    std::unique_ptr<proto::DemandTranslator> ownedTranslator_;
    proto::Translator *translator_ = nullptr;
    /** Layout order: the root first. */
    std::vector<std::unique_ptr<BusDomain>> domains_;
    /** Every processor board, by machine-wide CPU index. */
    std::vector<BoardSlot> boards_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<obs::EventTracer> tracer_;
    std::unique_ptr<obs::MissProfiler> profiler_;
    /** Track id recovery events land on (valid while tracer_ != null). */
    std::uint16_t recoverTrack_ = 0;
    /** Raw CPU handles while a trace run is in flight (for kill,
     *  rejoin and fence events scheduled before or during the run). */
    std::vector<cpu::TraceCpu *> activeCpus_;
};

} // namespace vmp::core

#endif // VMP_CORE_BUS_DOMAIN_HH
