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
    /** Bus arbitration discipline (default: plain FIFO). */
    mem::ArbitrationConfig arbitration{};
    /** Dead-owner deadline of every controller (0 disables it). */
    Tick deadOwnerTimeoutNs = proto::kDeadOwnerTimeoutNs;
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

    /**
     * Attach one trace-driven CPU per source and run all of them to
     * completion (each stops when its source is exhausted).
     */
    RunResult runTraces(
        const std::vector<trace::RefSource *> &sources);

    /** Alias of root().bus, held by simbench. */
    mem::VmeBus &bus() { return root().bus; }
    /** Alias of enableCoherenceCheckers(), held by simbench. */
    check::CoherenceChecker &enableCoherenceChecker()
    {
        return enableCoherenceCheckers();
    }
    /** Alias of root().checker, held by simbench. */
    check::CoherenceChecker *coherenceChecker()
    {
        return root().checker.get();
    }

  private:
    VmpConfig cfg_;
};

} // namespace vmp::core

#endif // VMP_CORE_SYSTEM_HH
