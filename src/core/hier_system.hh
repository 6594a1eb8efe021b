/**
 * @file
 * HierVmpSystem: the two-level bus hierarchy that scales past the
 * single-VMEbus ceiling of Section 5.3 ("up to 5 processors"). K
 * clusters, each a local VMEbus carrying up to ~5 processor boards
 * plus one inter-bus cache board (src/hier), are bridged onto a global
 * bus with main memory. Each cluster's image of physical memory acts
 * as a very large shared cache: local misses that hit the image stay
 * on the local bus, and only cluster-level misses and cross-cluster
 * consistency traffic reach the global bus.
 *
 * The seven DESIGN.md invariants hold per level: within a cluster the
 * flat two-state protocol runs unmodified against the cluster image,
 * and across clusters the inter-bus boards run the same protocol
 * against main memory, each board the single owner proxy for its
 * cluster.
 */

#ifndef VMP_CORE_HIER_SYSTEM_HH
#define VMP_CORE_HIER_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "backing/budget.hh"
#include "core/system.hh"
#include "hier/inter_bus_board.hh"

namespace vmp::core
{

/** Two-level machine configuration. */
struct HierConfig
{
    /** Number of clusters (local buses) on the global bus. */
    std::uint32_t clusters = 2;
    /** Processor boards per cluster (the paper's bus supports ~5). */
    std::uint32_t cpusPerCluster = 4;
    /** Per-processor cache geometry. */
    cache::CacheConfig cache{256, 4, 256, true};
    /** Main-memory size; every cluster image is the same size. */
    std::uint64_t memBytes = MiB(8);
    /** Local (cluster) bus timing. */
    mem::BusTiming localBusTiming{};
    /** Global bus timing. */
    mem::BusTiming globalBusTiming{};
    /** Arbitration discipline of every local bus. */
    mem::ArbitrationConfig localArbitration{};
    /** Arbitration discipline of the global bus. */
    mem::ArbitrationConfig globalArbitration{};
    proto::SoftwareTiming swTiming{};
    cpu::M68020Timing cpuTiming{};
    /** Processor bus-monitor FIFO depth. */
    std::size_t fifoCapacity = 128;
    /** Inter-bus board software budget. */
    hier::IbcTiming ibcTiming{};
    /** Inter-bus board FIFO depth (both FIFOs). */
    std::size_t ibcFifoCapacity = 128;

    std::uint32_t totalCpus() const { return clusters * cpusPerCluster; }
    /** The per-cluster flat configuration the boards are built from. */
    VmpConfig clusterConfig() const;
    void check() const;
};

/** Aggregate results of a hierarchical run. */
struct HierRunResult : RunResult
{
    /** busUtilization (inherited) is the *global* bus utilization. */
    double meanLocalBusUtilization = 0.0;
    double peakLocalBusUtilization = 0.0;
    /** Page fetches the inter-bus boards made over the global bus. */
    std::uint64_t globalFetches = 0;
    /** Image pages written back to main memory. */
    std::uint64_t globalWriteBacks = 0;
    /** Aggregate simulated references per simulated second. */
    double refsPerSec = 0.0;

    std::string toString() const;
};

/** The two-level machine: k cluster domains plus the global one. */
class HierVmpSystem : public Machine
{
  public:
    /**
     * Build a system. If @p translator is null one internal
     * DemandTranslator is shared machine-wide (a single physical
     * address space, as with one main memory).
     */
    explicit HierVmpSystem(const HierConfig &config,
                           proto::Translator *translator = nullptr);

    const HierConfig &config() const { return cfg_; }
    mem::VmeBus &globalBus() { return root().bus; }
    const mem::VmeBus &globalBus() const { return root().bus; }
    std::uint32_t clusters() const { return cfg_.clusters; }
    std::uint32_t cpusPerCluster() const { return cfg_.cpusPerCluster; }
    std::uint32_t totalCpus() const { return cfg_.totalCpus(); }

    mem::VmeBus &localBus(std::size_t cluster);
    const mem::VmeBus &localBus(std::size_t cluster) const;
    mem::PhysMem &image(std::size_t cluster);
    hier::InterBusBoard &interBusBoard(std::size_t cluster);
    const hier::InterBusBoard &interBusBoard(std::size_t cluster) const;

    /** One trace CPU per source, filled cluster-major; runs all to
     *  completion. */
    HierRunResult runTraces(
        const std::vector<trace::RefSource *> &sources);

    HierRunResult collect(
        const std::vector<cpu::TraceCpu *> &cpus) const;

    /**
     * Install coherence checkers at both levels: one per cluster bus
     * (full per-controller invariants against the cluster image) and
     * a monitor-only checker on the global bus asserting the
     * single-owner invariant across inter-bus boards. At most once.
     */
    void enableCoherenceCheckers(check::CheckerOptions options = {});

    /** Per-cluster checker (requires enableCoherenceCheckers). */
    check::CoherenceChecker &clusterChecker(std::size_t cluster);
    /** Global-bus checker (requires enableCoherenceCheckers). */
    check::CoherenceChecker &globalChecker();
    /** True once enableCoherenceCheckers() has run. */
    bool checkersEnabled() const { return root().checker != nullptr; }

    /**
     * Install failstop recovery at both levels: one RecoveryManager
     * per cluster bus (CPU boards plus the inter-bus board as a
     * liveness-only bridge — a dead bridge strands every remote frame)
     * and one on the global bus treating each inter-bus board's global
     * monitor as a protocol client whose Protect frames are reclaimed
     * into main memory. Controllers get their cluster's manager as
     * dead-owner oracle. With checkers installed, every completed
     * reclaim triggers the matching single-owner sweep. At most once.
     */
    void enableRecovery(recover::RecoveryConfig options = {});

    /** Per-cluster recovery manager (requires enableRecovery). */
    recover::RecoveryManager &clusterRecovery(std::size_t cluster);
    const recover::RecoveryManager &
    clusterRecovery(std::size_t cluster) const;
    /** True once enableRecovery() has run. */
    bool recoveryEnabled() const { return root().recovery != nullptr; }
    /** Global-bus recovery manager, or null if none installed. */
    recover::RecoveryManager *globalRecovery()
    {
        return root().recovery.get();
    }
    const recover::RecoveryManager *globalRecovery() const
    {
        return root().recovery.get();
    }

    /**
     * Install NVRAM-shadowed frame checkpoints at both levels: one
     * per cluster (shadowing the cluster image off its local bus) and
     * one global (shadowing main memory off the global bus). Recovery
     * managers — installed before or after — restore reclaimed frames
     * from the matching store, driving pages_lost to zero at every
     * level. @p asid as in VmpSystem::enableFrameCheckpoint. At most
     * once, before any traffic.
     */
    void enableFrameCheckpoint(Asid asid = 0xFE);

    /** True once enableFrameCheckpoint() ran. */
    bool frameCheckpointEnabled() const
    {
        return root().checkpointer != nullptr;
    }

    /**
     * Failstop cluster @p cluster's inter-bus cache board at tick
     * @p at: its service software dies, stranding the cluster's remote
     * misses and its global Protect frames. Inter-bus boards do not
     * hot-rejoin.
     */
    void killInterBusBoard(std::uint32_t cluster, Tick at);

    /**
     * Register every cluster's inter-bus board as a client of one
     * machine-wide memory-budget controller: the cluster's global-
     * shadow footprint is its occupancy and its global fetch/upgrade
     * completions are its fault pressure. @p config.totalFrames of 0
     * defaults to the main-memory frame count. The recurring epoch is
     * NOT started — call start() (or rebalance() manually) so that
     * unarmed runs stay event-free. At most once.
     */
    backing::BudgetController &
    enableClusterBudget(backing::BudgetConfig config = {});

    /** The cluster budget controller, or null if none installed. */
    backing::BudgetController *clusterBudget() { return budget_.get(); }
    const backing::BudgetController *clusterBudget() const
    {
        return budget_.get();
    }

    /**
     * Full sweep on every installed checker (quiescence only).
     * @return violations found by this sweep, summed over checkers.
     */
    std::uint64_t checkFullAll();

    /** Total violations across all checkers so far. */
    std::uint64_t totalViolations() const;

  private:
    /** Cluster @p k's domain (domains_[0] is the global one). */
    BusDomain &cluster(std::size_t k);
    const BusDomain &cluster(std::size_t k) const;

    void armInterBusCrash(const fault::BoardCrashSpec &crash) override;

    HierConfig cfg_;
    std::unique_ptr<backing::BudgetController> budget_;
};

} // namespace vmp::core

#endif // VMP_CORE_HIER_SYSTEM_HH
