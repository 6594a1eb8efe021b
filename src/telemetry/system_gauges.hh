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
class Machine;
} // namespace vmp::core

namespace vmp::telemetry
{

/**
 * Per domain in layout order: bus utilization and fenced drops, a
 * bridge's queue depth, each board's FIFO depth/drops and — when
 * installed — the recovery fencing counters. Group names are the
 * statsJson() group names ("bus", "c0.ibc", "cpu3", "recover.global").
 */
obs::GaugeSet collectGauges(const core::Machine &machine);

/** Append one @p group group of fencing/reclaim counters. */
void addRecoveryGauges(obs::GaugeSet &set, const std::string &group,
                       const recover::RecoveryManager &recovery);

/** Append one "tier" group: arena occupancy, drain queue, stalls. */
void addTierGauges(obs::GaugeSet &set,
                   const backing::MemoryTier &tier);

/** Register collectGauges(machine) as a sink gauge provider. */
void attachSystemGauges(StreamingSink &sink, const core::Machine &machine);

} // namespace vmp::telemetry

#endif // VMP_TELEMETRY_SYSTEM_GAUGES_HH
