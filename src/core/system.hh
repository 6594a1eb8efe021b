/**
 * @file
 * VmpSystem: the full machine of Section 4 — a shared VMEbus, central
 * memory, and several processor boards, each a 68020-rate CPU model
 * with virtually addressed cache, bus monitor and software cache
 * controller. This is the top-level object of the library's public
 * API: configure it, hand each processor a trace or a scripted
 * program, run, and read the statistics back.
 */

#ifndef VMP_CORE_SYSTEM_HH
#define VMP_CORE_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/bus_domain.hh"
#include "monitor/bus_monitor.hh"

namespace vmp::core
{

/** Whole-machine configuration. */
struct VmpConfig
{
    /** Number of processor boards on the bus. */
    std::uint32_t processors = 1;
    /** Per-processor cache geometry (prototype: 256 KiB, 4-way). */
    cache::CacheConfig cache{256, 4, 256, true};
    /** Central memory size (prototype maximum: 8 MiB). */
    std::uint64_t memBytes = MiB(8);
    /** Bus and memory-board timing. */
    mem::BusTiming busTiming{};
    /** Bus arbitration discipline (default: plain FIFO). */
    mem::ArbitrationConfig arbitration{};
    /** Software miss-handler instruction budget. */
    proto::SoftwareTiming swTiming{};
    /** Processor execution rate. */
    cpu::M68020Timing cpuTiming{};
    /** Bus-monitor interrupt FIFO depth. */
    std::size_t fifoCapacity = 128;

    void check() const;
};

/** One processor board: cache + monitor + controller (+ CPU, if any). */
struct ProcessorBoard
{
    ProcessorBoard(CpuId id, EventQueue &events, mem::VmeBus &bus,
                   proto::Translator &translator,
                   const VmpConfig &config);

    cache::Cache cache;
    monitor::BusMonitor monitor;
    proto::CacheController controller;
};

/** Aggregate results of a run. */
struct RunResult
{
    Tick elapsed = 0;
    std::uint64_t totalRefs = 0;
    std::uint64_t totalMisses = 0;
    double missRatio = 0.0;
    /** Mean per-processor performance, normalized (Figure 3 metric). */
    double performance = 0.0;
    /** Bus utilization over the run. */
    double busUtilization = 0.0;
    std::uint64_t busAborts = 0;
    std::uint64_t writeBacks = 0;
    /** Completed AssertOwnership transactions (upgrade misses); with
     *  writeBacks and missRatio this is the measured
     *  analytic::BusLoadProfile of the run. */
    std::uint64_t busUpgrades = 0;

    std::string toString() const;
};

/** The single-bus machine: one BusDomain. */
class VmpSystem : public Machine
{
  public:
    /**
     * Build a system. If @p translator is null an internal
     * DemandTranslator is used (kernel region shared across ASIDs).
     */
    explicit VmpSystem(const VmpConfig &config,
                       proto::Translator *translator = nullptr);

    const VmpConfig &config() const { return cfg_; }
    mem::VmeBus &bus() { return root().bus; }
    const mem::VmeBus &bus() const { return root().bus; }
    std::uint32_t processors() const;

    /**
     * Attach one trace-driven CPU per source and run all of them to
     * completion (each stops when its source is exhausted).
     */
    RunResult runTraces(
        const std::vector<trace::RefSource *> &sources);

    /** Collect aggregate statistics for the run so far. */
    RunResult collect(const std::vector<cpu::TraceCpu *> &cpus) const;

    /**
     * When using the internal demand translator: declare user pages
     * non-shared (Section 5.4 hint). Read misses to user pages then
     * fetch read-private, eliminating later write upgrades.
     */
    void setUserPrivateHint(bool enabled);

    /**
     * Install a coherence-invariant checker over the bus: online
     * single-owner checking per transaction plus checkFull() sweeps
     * at quiescence. May be called at most once.
     */
    check::CoherenceChecker &
    enableCoherenceChecker(check::CheckerOptions options = {});

    /** The installed checker, or null if none. */
    check::CoherenceChecker *coherenceChecker()
    {
        return root().checker.get();
    }

    /**
     * Install the failstop-recovery subsystem: a FailureDetector over
     * the bus, the reclaim coordinator, and the dead-owner oracle on
     * every controller (so stranded waits abandon with a structured
     * DeadOwnerError instead of retrying forever). If a coherence
     * checker is (or later becomes) installed, every completed reclaim
     * triggers an immediate single-owner sweep. May be called at most
     * once, before any traffic.
     */
    recover::RecoveryManager &
    enableRecovery(recover::RecoveryConfig options = {});

    /** The installed recovery manager, or null if none. */
    recover::RecoveryManager *recoveryManager()
    {
        return root().recovery.get();
    }
    const recover::RecoveryManager *recoveryManager() const
    {
        return root().recovery.get();
    }

    /**
     * Install an NVRAM-shadowed frame checkpoint: a cache-page-granule
     * backing::PageStore kept a live shadow of memory by a
     * FrameCheckpointer snapshotting every completed ownership
     * transfer on the bus (zero simulated cost — the memory board
     * mirrors writes into stable storage). If recovery is installed
     * (before or after), it restores reclaimed frames from this store,
     * driving recover.pages_lost to zero by construction. @p asid is
     * the reserved space id frames are keyed under. May be called at
     * most once, before any traffic.
     */
    backing::PageStore &enableFrameCheckpoint(Asid asid = 0xFE);

    /** The installed checkpointer, or null if none. */
    backing::FrameCheckpointer *frameCheckpointer()
    {
        return root().checkpointer.get();
    }

  private:
    VmpConfig cfg_;
};

} // namespace vmp::core

#endif // VMP_CORE_SYSTEM_HH
