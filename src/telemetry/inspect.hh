/**
 * @file
 * Live inspection mode: on-demand snapshots of the machine's hidden
 * hardware state — cache tag arrays, bus-monitor action tables,
 * interrupt-FIFO contents, controller bookkeeping, recovery and
 * tier state — serialized through sim/json.hh.
 *
 * In the spirit of live cache inspection (arXiv 2007.12271): the
 * simulated VMP hardware state that normally stays invisible behind
 * aggregate counters is dumped as a structured document a debugger or
 * the vmp_replay tool can cross-check against the event stream.
 *
 * Consistency points: every collector only *reads* component state
 * (const references, no events scheduled, no RNG), but the snapshot
 * is only transactionally meaningful at quiescent points — between
 * runs, after EventQueue::run() returns, or from a callback scheduled
 * by the caller. Mid-event the machine is mid-transition (a miss
 * handler may hold a frame half-filled) and the snapshot faithfully
 * shows that in-flight state.
 */

#ifndef VMP_TELEMETRY_INSPECT_HH
#define VMP_TELEMETRY_INSPECT_HH

#include "sim/json.hh"

namespace vmp::cache
{
class Cache;
} // namespace vmp::cache

namespace vmp::mem
{
class VmeBus;
} // namespace vmp::mem

namespace vmp::monitor
{
class ActionTable;
class InterruptFifo;
} // namespace vmp::monitor

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
struct ProcessorBoard;
class VmpSystem;
class HierVmpSystem;
} // namespace vmp::core

namespace vmp::telemetry
{

/** Valid slots of one cache: set/way, <asid, vpn> tag, flags. */
Json inspectCache(const cache::Cache &cache);

/** Non-ignored action-table entries: frame, entry name. */
Json inspectActionTable(const monitor::ActionTable &table);

/** FIFO occupancy plus every queued word (type, paddr, requester). */
Json inspectFifo(const monitor::InterruptFifo &fifo);

/** One bus at any level: utilization, busy flag, fenced drops. */
Json inspectBus(const mem::VmeBus &bus);

/** One processor board: cache + monitor (table, fifo) + controller. */
Json inspectBoard(const core::ProcessorBoard &board);

/** Recovery coordinator: dead/fenced boards, reclaim progress. */
Json inspectRecovery(const recover::RecoveryManager &recovery);

/** Memory tier: arena occupancy, drain queue, transfer counters. */
Json inspectTier(const backing::MemoryTier &tier);

/**
 * Whole flat machine at the current tick: bus state, every board,
 * and recovery state when installed. The document round-trips
 * through Json::parse (used by tests and the live_inspect example).
 */
Json inspectSystem(const core::VmpSystem &system);

/** Whole two-level machine: global bus, clusters (bus + inter-bus
 *  board + boards) and recovery at both levels. */
Json inspectSystem(const core::HierVmpSystem &system);

} // namespace vmp::telemetry

#endif // VMP_TELEMETRY_INSPECT_HH
