/**
 * @file
 * Live-gauge wiring: collect instantaneous metrics from a whole
 * system (bus utilization, interrupt-FIFO depths, recovery fencing
 * counters, arena occupancy) into an obs::GaugeSet,
 * and register the same collection as a StreamingSink gauge provider
 * so every flush boundary carries a rolled-up snapshot.
 *
 * This is the seam that surfaces the memory-tier and recovery
 * subsystems mid-run: FrameArena occupancy (the far-memory tier) and
 * RecoveryManager fencing counters previously appeared only
 * in the end-of-run stat groups; collectGauges() samples them at any
 * instant and obs::metricsSnapshot(tracer, profiler, &gauges) renders
 * them alongside the trace totals.
 *
 * All collectors are observation-only: const references, no events
 * scheduled, no RNG drawn.
 */

#ifndef VMP_TELEMETRY_SYSTEM_GAUGES_HH
#define VMP_TELEMETRY_SYSTEM_GAUGES_HH

#include "obs/gauges.hh"
#include "telemetry/streaming_sink.hh"

namespace vmp::backing
{
class MemoryTier;
} // namespace vmp::backing

namespace vmp::recover
{
class RecoveryManager;
} // namespace vmp::recover

namespace vmp::core
{
class VmpSystem;
class HierVmpSystem;
} // namespace vmp::core

namespace vmp::telemetry
{

/** Bus utilization, per-board FIFO depth/drops, and — when installed
 *  — recovery fencing counters of a flat system. */
obs::GaugeSet collectGauges(const core::VmpSystem &system);

/** Global + per-cluster bus utilization, IBC queue depths, per-CPU
 *  FIFO depths and recovery fencing counters at both levels. */
obs::GaugeSet collectGauges(const core::HierVmpSystem &system);

/** Append one @p group group of fencing/reclaim counters. */
void addRecoveryGauges(obs::GaugeSet &set, const std::string &group,
                       const recover::RecoveryManager &recovery);

/** Append one "tier" group: arena occupancy, drain queue, stalls. */
void addTierGauges(obs::GaugeSet &set,
                   const backing::MemoryTier &tier);

/** Register collectGauges(system) as a sink gauge provider. */
void attachSystemGauges(StreamingSink &sink,
                        const core::VmpSystem &system);
void attachSystemGauges(StreamingSink &sink,
                        const core::HierVmpSystem &system);

} // namespace vmp::telemetry

#endif // VMP_TELEMETRY_SYSTEM_GAUGES_HH
