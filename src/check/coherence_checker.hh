/**
 * @file
 * Coherence-invariant checker: an omniscient bus observer that shadows
 * the global state of one bus segment and asserts the VMP ownership
 * protocol's invariants. Live cache-state inspection — observing
 * correctness rather than assuming it — is the point: the paper argues
 * software can recover from every consistency hazard, and this is the
 * component that would catch it being wrong.
 *
 * Two granularities:
 *  - online, per transaction (cheap, bus-side only): after every
 *    completed transaction, at most one monitor may hold a 10-Protect
 *    entry for the affected frame (single-owner invariant I1);
 *  - full sweep at quiescence (checkFull(), event queue drained):
 *    all invariants, including the software-side ones that are only
 *    required to hold once in-flight handlers have completed:
 *
 *      I1  at most one monitor holds Protect for any frame;
 *      I2  controller bookkeeping matches its monitor's table:
 *          Private frame => own entry Protect, Shared frame => Shared;
 *      I3  the software shadow table equals the hardware table;
 *      I4  at most one controller believes it owns a frame privately;
 *      I5  a modified (or exclusive-flagged) slot implies its frame is
 *          held Private;
 *      I6  clean cached copies are byte-identical to the memory-server
 *          image (when the cache stores data);
 *      I7  the slot<->frame maps and the cache's valid bits agree in
 *          both directions.
 *
 * Stale 01-Shared entries with no cached copy are *legal* (clean
 * replacement leaves them lazily, Section 3.2); stale 10-Protect
 * entries are not. The checker never mutates simulation state and is
 * absent (zero-cost) unless installed.
 */

#ifndef VMP_CHECK_COHERENCE_CHECKER_HH
#define VMP_CHECK_COHERENCE_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/phys_mem.hh"
#include "mem/vme_bus.hh"
#include "monitor/bus_monitor.hh"
#include "proto/controller.hh"
#include "sim/stats.hh"

namespace vmp::check
{

/** Invariant checker for one bus segment. */
class CoherenceChecker
{
  public:
    /**
     * @param bus the bus segment to observe
     * @param memory the memory-server image behind that bus
     */
    CoherenceChecker(mem::VmeBus &bus, mem::PhysMem &memory);

    /**
     * Register a processor board: its controller's software state and
     * its bus monitor's table both join the checked set.
     */
    void addController(const proto::CacheController &controller);

    /**
     * Register a monitor without an attached controller (e.g. the
     * inter-bus cache board's global-side monitor): its table joins
     * the single-owner check only.
     */
    void addMonitor(const monitor::BusMonitor &monitor);

    /** Start observing: installs the bus transaction observer. */
    void install();

    /**
     * Full invariant sweep. Only meaningful at quiescence (event queue
     * drained) — software state legitimately lags the bus while
     * handlers are in flight. @return violations found by this sweep.
     */
    std::uint64_t checkFull();

    /**
     * Single-owner (I1) sweep over every non-Ignore frame. Unlike
     * checkFull() this is bus-side only and therefore valid at *any*
     * time, not just quiescence; the recovery coordinator runs it
     * immediately after reclaiming a dead board's frames to verify the
     * single-owner invariant was restored mid-run. @return violations
     * found by this sweep.
     */
    std::uint64_t checkOwnersSweep();

    const Counter &violations() const { return violations_; }
    const Counter &transactionsObserved() const { return observed_; }
    /** First kMaxReports human-readable violation descriptions. */
    const std::vector<std::string> &reports() const { return reports_; }

    void registerStats(StatGroup &group) const;

  private:
    void onTransaction(const mem::BusTransaction &tx,
                       const mem::TxResult &result);
    /** I1 for a single frame (online per-transaction check). */
    void checkFrameOwners(std::uint64_t frame, const char *context);
    void report(const std::string &text);

    std::uint32_t pageBytes() const;

    mem::VmeBus &bus_;
    mem::PhysMem &mem_;
    std::vector<const proto::CacheController *> controllers_;
    /** All monitors (controllers' plus monitor-only registrations). */
    std::vector<const monitor::BusMonitor *> monitors_;
    bool installed_ = false;

    Counter observed_;
    Counter violations_;
    std::vector<std::string> reports_;
};

} // namespace vmp::check

#endif // VMP_CHECK_COHERENCE_CHECKER_HH
