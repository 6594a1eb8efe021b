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
    /** Arbitration discipline of every bus, local and global. */
    mem::ArbitrationConfig arbitration{};
    /** Dead-owner deadline of every processor's controller (0
     *  disables it); the inter-bus boards have none. */
    Tick deadOwnerTimeoutNs = proto::kDeadOwnerTimeoutNs;
    /** Processor bus-monitor FIFO depth. */
    std::size_t fifoCapacity = 128;
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

    /** One trace CPU per source, filled cluster-major; runs all to
     *  completion. */
    HierRunResult runTraces(
        const std::vector<trace::RefSource *> &sources);

    /** Alias of config().clusters, held by simbench. */
    std::uint32_t clusters() const { return cfg_.clusters; }
    /** Alias of config().totalCpus(), held by simbench. */
    std::uint32_t totalCpus() const { return cfg_.totalCpus(); }
    /** Alias of cluster(k).bus, held by simbench. */
    mem::VmeBus &localBus(std::size_t k) { return cluster(k).bus; }
    /** Alias of *cluster(k).bridge, held by simbench. */
    hier::InterBusBoard &interBusBoard(std::size_t k)
    {
        return *cluster(k).bridge;
    }

  private:
    HierConfig cfg_;
};

} // namespace vmp::core

#endif // VMP_CORE_HIER_SYSTEM_HH
